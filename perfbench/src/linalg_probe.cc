// Direct calls of the src/linalg kernels the exact solvers spend their time
// in, each timed and checked by a residual so a fast but wrong kernel
// counts as a failed operation. Operation counts are computed from the
// shapes, not measured.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/linalg/gemm.h"
#include "src/linalg/matrix.h"
#include "src/linalg/qr.h"

namespace perfbench {
namespace {

using keystone::Matrix;
using keystone::Timer;

std::vector<double> RefMatVec(const Matrix& m, const std::vector<double>& x) {
  std::vector<double> y(m.rows(), 0.0);
  for (size_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < m.cols(); ++j) sum += m(i, j) * x[j];
    y[i] = sum;
  }
  return y;
}

std::vector<double> RefMatTVec(const Matrix& m, const std::vector<double>& x) {
  std::vector<double> y(m.cols(), 0.0);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) y[j] += m(i, j) * x[i];
  }
  return y;
}

/// max |a - b| / max |b|: the relative residual of a checked product.
double RelativeError(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(b[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

constexpr double kTolerance = 1e-9;

}  // namespace

LinalgProbe RunLinalgProbe(Env* env, size_t dim, uint64_t seed) {
  keystone::Rng rng(seed);
  const double d = static_cast<double>(dim);
  const Matrix a = Matrix::GaussianRandom(dim, dim, &rng);
  std::vector<double> x(dim);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  LinalgProbe probe;

  // Gram: A^T A, d(d+1)/2 entries of d multiply-adds each.
  const Timer gram_wall;
  const Matrix gram = keystone::Gram(a);
  probe.gram_gflops = d * d * (d + 1.0) / gram_wall.ElapsedSeconds() / 1e9;
  env->Check(gram.rows() == dim && gram.cols() == dim &&
                 RelativeError(RefMatVec(gram, x), RefMatTVec(a, RefMatVec(a, x))) <
                     kTolerance,
             "linalg Gram residual");

  // GEMM: (d x d) * (d x k), 2 d^2 k flops.
  const size_t k = 256;
  const Matrix b = Matrix::GaussianRandom(dim, k, &rng);
  std::vector<double> y(k);
  for (double& v : y) v = rng.Uniform(-1.0, 1.0);
  const Timer gemm_wall;
  const Matrix c = keystone::Gemm(a, b);
  probe.gemm_gflops = 2.0 * d * d * static_cast<double>(k) /
                      gemm_wall.ElapsedSeconds() / 1e9;
  env->Check(c.rows() == dim && c.cols() == k &&
                 RelativeError(RefMatVec(c, y), RefMatVec(a, RefMatVec(b, y))) <
                     kTolerance,
             "linalg Gemm residual");

  // Cholesky of the (shifted) Gram matrix, d^3 / 3 flops.
  Matrix spd = gram;
  for (size_t i = 0; i < dim; ++i) spd(i, i) += d;
  Matrix l;
  const Timer chol_wall;
  const bool factored = keystone::Cholesky(spd, &l);
  probe.cholesky_s = chol_wall.ElapsedSeconds();
  probe.cholesky_gflops = d * d * d / 3.0 / probe.cholesky_s / 1e9;
  env->Check(factored && l.rows() == dim && l.cols() == dim &&
                 RelativeError(RefMatVec(l, RefMatTVec(l, x)), RefMatVec(spd, x)) <
                     kTolerance,
             "linalg Cholesky residual");
  return probe;
}

}  // namespace perfbench
