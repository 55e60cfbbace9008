//===- linalg/Eigen.cpp - Symmetric eigensolver and PSD repair ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

using namespace kast;

namespace {

/// Per-eigenvalue QL iteration cap (EISPACK's). The shifted iteration
/// converges cubically and needs a handful at most.
constexpr size_t MaxQlIterations = 30;

/// Householder reduction of symmetric \p W to tridiagonal form
/// (EISPACK tred2). On return \p D holds the diagonal, \p E the
/// subdiagonal in E[1..N-1] (E[0] = 0), and row j of \p W the j-th
/// column of the accumulated orthogonal transform. W is the transpose
/// of tred2's V, so every inner loop runs along a row.
void tridiagonalize(std::vector<double> &W, size_t N, std::vector<double> &D,
                    std::vector<double> &E) {
  auto Row = [&](size_t R) { return W.data() + R * N; };
  for (size_t J = 0; J < N; ++J)
    D[J] = Row(J)[N - 1];

  for (size_t I = N - 1; I > 0; --I) {
    // Scale to avoid under/overflow.
    double Scale = 0.0;
    double H = 0.0;
    for (size_t K = 0; K < I; ++K)
      Scale += std::fabs(D[K]);
    if (Scale == 0.0) {
      E[I] = D[I - 1];
      for (size_t J = 0; J < I; ++J) {
        D[J] = Row(J)[I - 1];
        Row(I)[J] = 0.0;
        Row(J)[I] = 0.0;
      }
    } else {
      // Generate the Householder vector.
      for (size_t K = 0; K < I; ++K) {
        D[K] /= Scale;
        H += D[K] * D[K];
      }
      double F = D[I - 1];
      double G = std::sqrt(H);
      if (F > 0.0)
        G = -G;
      E[I] = Scale * G;
      H -= F * G;
      D[I - 1] = F - G;
      std::fill(E.begin(), E.begin() + I, 0.0);

      // Apply the similarity transformation to the remaining rows.
      for (size_t J = 0; J < I; ++J) {
        const double *Wj = Row(J);
        F = D[J];
        Row(I)[J] = F;
        G = E[J] + Wj[J] * F;
        for (size_t K = J + 1; K < I; ++K) {
          G += Wj[K] * D[K];
          E[K] += Wj[K] * F;
        }
        E[J] = G;
      }
      F = 0.0;
      for (size_t J = 0; J < I; ++J) {
        E[J] /= H;
        F += E[J] * D[J];
      }
      const double HH = F / (H + H);
      for (size_t J = 0; J < I; ++J)
        E[J] -= HH * D[J];
      for (size_t J = 0; J < I; ++J) {
        double *Wj = Row(J);
        F = D[J];
        G = E[J];
        for (size_t K = J; K < I; ++K)
          Wj[K] -= F * E[K] + G * D[K];
        D[J] = Wj[I - 1];
        Wj[I] = 0.0;
      }
    }
    D[I] = H;
  }

  // Accumulate the transformations.
  for (size_t I = 0; I + 1 < N; ++I) {
    double *Wi = Row(I);
    double *Next = Row(I + 1);
    Wi[N - 1] = Wi[I];
    Wi[I] = 1.0;
    const double H = D[I + 1];
    if (H != 0.0) {
      for (size_t K = 0; K <= I; ++K)
        D[K] = Next[K] / H;
      for (size_t J = 0; J <= I; ++J) {
        double *Wj = Row(J);
        double G = 0.0;
        for (size_t K = 0; K <= I; ++K)
          G += Next[K] * Wj[K];
        for (size_t K = 0; K <= I; ++K)
          Wj[K] -= G * D[K];
      }
    }
    std::fill(Next, Next + I + 1, 0.0);
  }
  for (size_t J = 0; J < N; ++J) {
    D[J] = Row(J)[N - 1];
    Row(J)[N - 1] = 0.0;
  }
  Row(N - 1)[N - 1] = 1.0;
  E[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (\p D, \p E) from
/// tridiagonalize (EISPACK tql2), rotating the rows of \p W along.
/// \returns false if some eigenvalue used up MaxQlIterations; a NaN
/// anywhere never meets the stopping test, so it ends up here too.
bool diagonalize(std::vector<double> &W, size_t N, std::vector<double> &D,
                 std::vector<double> &E) {
  auto Row = [&](size_t R) { return W.data() + R * N; };
  for (size_t I = 1; I < N; ++I)
    E[I - 1] = E[I];
  E[N - 1] = 0.0;

  // A subdiagonal element is negligible against the norm of the whole
  // tridiagonal. tql2's running maximum of |D| + |E| would instead judge
  // a near-null leading block (a Gram with duplicated rows) at its own
  // tiny scale and iterate it until its entries go subnormal, where the
  // rotations stop being orthogonal.
  double Tst1 = 0.0;
  for (size_t I = 0; I < N; ++I)
    Tst1 = std::max(Tst1, std::fabs(D[I]) + std::fabs(E[I]));

  bool Converged = true;
  double F = 0.0;
  const double Eps = std::numeric_limits<double>::epsilon();
  for (size_t L = 0; L < N; ++L) {
    // Find a small subdiagonal element; E[N-1] = 0 bounds the search.
    size_t M = L;
    while (M + 1 < N && !(std::fabs(E[M]) <= Eps * Tst1))
      ++M;

    // If M == L, D[L] is already an eigenvalue; otherwise iterate.
    for (size_t Iter = 0; M > L && !(std::fabs(E[L]) <= Eps * Tst1);
         ++Iter) {
      if (Iter == MaxQlIterations) {
        Converged = false;
        break;
      }
      // Compute the implicit shift.
      double G = D[L];
      double P = (D[L + 1] - G) / (2.0 * E[L]);
      double R = std::hypot(P, 1.0);
      if (P < 0.0)
        R = -R;
      D[L] = E[L] / (P + R);
      D[L + 1] = E[L] * (P + R);
      const double Dl1 = D[L + 1];
      double H = G - D[L];
      for (size_t I = L + 2; I < N; ++I)
        D[I] -= H;
      F += H;

      // Implicit QL transformation.
      P = D[M];
      double C = 1.0, C2 = 1.0, C3 = 1.0;
      const double El1 = E[L + 1];
      double S = 0.0, S2 = 0.0;
      for (size_t I = M; I-- > L;) {
        C3 = C2;
        C2 = C;
        S2 = S;
        G = C * E[I];
        H = C * P;
        R = std::hypot(P, E[I]);
        E[I + 1] = S * R;
        S = E[I] / R;
        C = P / R;
        P = C * D[I] - S * G;
        D[I + 1] = H + S * (C * G + S * D[I]);

        // Accumulate the rotation into eigenvector rows I and I+1.
        double *Wi = Row(I);
        double *Wn = Row(I + 1);
        for (size_t K = 0; K < N; ++K) {
          const double Hk = Wn[K];
          Wn[K] = S * Wi[K] + C * Hk;
          Wi[K] = C * Wi[K] - S * Hk;
        }
      }
      P = -S * S2 * C3 * El1 * E[L] / Dl1;
      E[L] = S * P;
      D[L] = C * P;
    }
    D[L] += F;
    E[L] = 0.0;
  }
  return Converged;
}

bool allFinite(const std::vector<double> &Values) {
  return std::all_of(Values.begin(), Values.end(),
                     [](double V) { return std::isfinite(V); });
}

} // namespace

EigenDecomposition kast::eigenSymmetric(const Matrix &Input) {
  assert(Input.rows() == Input.cols() && "eigendecomposition needs square");
  const size_t N = Input.rows();
  EigenDecomposition Result;
  if (N == 0) {
    Result.Converged = true;
    return Result;
  }

  // W starts as A (= A^T) and ends with the eigenvectors as its rows.
  // NaN or Inf input is not iterated at all: a comparison with NaN
  // must not pass for convergence.
  std::vector<double> W = Input.data();
  std::vector<double> D(N), E(N);
  if (allFinite(W)) {
    assert(Input.isSymmetric(1e-6) && "eigendecomposition needs symmetry");
    tridiagonalize(W, N, D, E);
    Result.Converged = diagonalize(W, N, D, E) && allFinite(D) &&
                       allFinite(W);
  }
  if (!Result.Converged) {
    // An unconverged result is all NaN, so it cannot pass for an answer.
    const double NaN = std::numeric_limits<double>::quiet_NaN();
    Result.Values.assign(N, NaN);
    Result.Vectors = Matrix(N, N, NaN);
    return Result;
  }

  // Fix each eigenvector's sign: largest-magnitude component positive,
  // the lowest index winning a tie.
  for (size_t J = 0; J < N; ++J) {
    double *Wj = W.data() + J * N;
    size_t Pivot = 0;
    for (size_t K = 1; K < N; ++K)
      if (std::fabs(Wj[K]) > std::fabs(Wj[Pivot]))
        Pivot = K;
    if (Wj[Pivot] < 0.0)
      for (size_t K = 0; K < N; ++K)
        Wj[K] = -Wj[K];
  }

  // Sort eigenpairs in descending eigenvalue order, vectors into columns.
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&D](size_t L, size_t R) { return D[L] > D[R]; });
  Result.Values.resize(N);
  Result.Vectors = Matrix(N, N);
  for (size_t J = 0; J < N; ++J) {
    Result.Values[J] = D[Order[J]];
    const double *Wj = W.data() + Order[J] * N;
    for (size_t I = 0; I < N; ++I)
      Result.Vectors.at(I, J) = Wj[I];
  }
  return Result;
}

/// Rebuilds sum over positive eigenvalues of lambda * v v^T from a
/// computed decomposition; shared by the two PSD projections. Each
/// upper-triangle entry sums over the eigenpairs in one fixed order,
/// whatever the thread count, and is mirrored into the lower triangle,
/// so the result is exactly symmetric and exactly reproducible.
static Matrix rebuildClipped(const EigenDecomposition &E, size_t N) {
  // Values are descending; an unconverged all-NaN spectrum is kept
  // whole, so its rebuild is NaN rather than a silent zero matrix.
  size_t Positive = 0;
  while (Positive < N && !(E.Values[Positive] <= 0.0))
    ++Positive;
  // Rows of Vt are the kept eigenvectors, so the inner loop is contiguous.
  std::vector<double> Vt(Positive * N);
  for (size_t I = 0; I < N; ++I)
    for (size_t K = 0; K < Positive; ++K)
      Vt[K * N + I] = E.Vectors.at(I, K);

  Matrix Out(N, N, 0.0);
  parallelFor(N, [&](size_t I) {
    double *OutRow = &Out.at(I, 0);
    for (size_t K = 0; K < Positive; ++K) {
      const double *Vk = Vt.data() + K * N;
      const double Scaled = E.Values[K] * Vk[I];
      if (Scaled == 0.0)
        continue;
      for (size_t J = I; J < N; ++J)
        OutRow[J] += Scaled * Vk[J];
    }
  });
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      Out.at(J, I) = Out.at(I, J);
  return Out;
}

Matrix kast::projectToPsd(const Matrix &A) {
  return rebuildClipped(eigenSymmetric(A), A.rows());
}

Matrix kast::projectToPsdIfNeeded(const Matrix &A) {
  EigenDecomposition E = eigenSymmetric(A);
  if (E.Values.empty() || E.Values.back() >= 0.0)
    return A;
  return rebuildClipped(E, A.rows());
}

double kast::minEigenvalue(const Matrix &A) {
  EigenDecomposition E = eigenSymmetric(A);
  assert(!E.Values.empty() && "empty matrix has no eigenvalues");
  return E.Values.back();
}

Matrix kast::doubleCenter(const Matrix &K) {
  assert(K.rows() == K.cols() && "centering needs a square Gram matrix");
  const size_t N = K.rows();
  if (N == 0)
    return K;
  std::vector<double> RowMean(N, 0.0);
  double TotalMean = 0.0;
  for (size_t I = 0; I < N; ++I) {
    for (size_t J = 0; J < N; ++J)
      RowMean[I] += K.at(I, J);
    RowMean[I] /= static_cast<double>(N);
    TotalMean += RowMean[I];
  }
  TotalMean /= static_cast<double>(N);

  Matrix Out(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Out.at(I, J) = K.at(I, J) - RowMean[I] - RowMean[J] + TotalMean;
  return Out;
}
