//===- tests/LinalgTest.cpp - linalg library unit tests --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "linalg/Matrix.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

using namespace kast;

namespace {

/// Random symmetric matrix with entries in [-1, 1].
Matrix randomSymmetric(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Matrix A(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I; J < N; ++J) {
      double V = 2.0 * R.uniformReal() - 1.0;
      A.at(I, J) = V;
      A.at(J, I) = V;
    }
  return A;
}

/// Reconstructs V * diag(Values) * V^T.
Matrix reconstruct(const EigenDecomposition &E) {
  const size_t N = E.Vectors.rows();
  Matrix D(N, N, 0.0);
  for (size_t K = 0; K < N; ++K)
    D.at(K, K) = E.Values[K];
  return E.Vectors.multiply(D).multiply(E.Vectors.transposed());
}

/// Largest |A_ij|.
double maxAbs(const Matrix &A) {
  double Max = 0.0;
  for (double V : A.data())
    Max = std::max(Max, std::fabs(V));
  return Max;
}

/// max_ij |(A V - V diag(Values))_ij|.
double eigenResidual(const Matrix &A, const EigenDecomposition &E) {
  Matrix AV = A.multiply(E.Vectors);
  double Max = 0.0;
  for (size_t I = 0; I < AV.rows(); ++I)
    for (size_t J = 0; J < AV.cols(); ++J)
      Max = std::max(Max, std::fabs(AV.at(I, J) -
                                    E.Vectors.at(I, J) * E.Values[J]));
  return Max;
}

/// max_ij |(V^T V - I)_ij|.
double orthogonalityError(const EigenDecomposition &E) {
  Matrix VtV = E.Vectors.transposed().multiply(E.Vectors);
  return VtV.maxAbsDiff(Matrix::identity(VtV.rows()));
}

/// Every eigenvector's largest-magnitude component is positive, the
/// lowest row index winning a tie.
void expectSignConvention(const EigenDecomposition &E) {
  for (size_t J = 0; J < E.Vectors.cols(); ++J) {
    size_t Pivot = 0;
    for (size_t I = 1; I < E.Vectors.rows(); ++I)
      if (std::fabs(E.Vectors.at(I, J)) > std::fabs(E.Vectors.at(Pivot, J)))
        Pivot = I;
    EXPECT_GT(E.Vectors.at(Pivot, J), 0.0) << "eigenvector " << J;
  }
}

/// Random matrix with entries in [-1, 1].
Matrix randomMatrix(size_t Rows, size_t Cols, uint64_t Seed) {
  Rng R(Seed);
  Matrix M(Rows, Cols);
  for (double &V : M.data())
    V = 2.0 * R.uniformReal() - 1.0;
  return M;
}

/// Q * diag(Spectrum) * Q^T for Q a product of two random Householder
/// reflections, so the eigenvalues are known exactly up to rounding.
Matrix withSpectrum(const std::vector<double> &Spectrum, uint64_t Seed) {
  const size_t N = Spectrum.size();
  Matrix Q = Matrix::identity(N);
  for (uint64_t Round = 0; Round < 2; ++Round) {
    Matrix U = randomMatrix(N, 1, Seed + Round);
    double NormSq = 0.0;
    for (double V : U.data())
      NormSq += V * V;
    Matrix H = Matrix::identity(N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        H.at(I, J) -= 2.0 * U.at(I, 0) * U.at(J, 0) / NormSq;
    Q = Q.multiply(H);
  }
  Matrix D(N, N, 0.0);
  for (size_t I = 0; I < N; ++I)
    D.at(I, I) = Spectrum[I];
  Matrix A = Q.multiply(D).multiply(Q.transposed());
  // Exact symmetry, as the callers' Gram matrices have.
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      A.at(J, I) = A.at(I, J);
  return A;
}

/// Gram matrix X X^T of \p N rows drawn from \p Bases distinct random
/// 16-dimensional feature vectors, row I a copy of base I % Bases:
/// rank min(Bases, 16), with N - rank eigenvalues at zero.
Matrix duplicatedRowsGram(size_t N, size_t Bases, uint64_t Seed) {
  Matrix Base = randomMatrix(Bases, 16, Seed);
  Matrix X(N, 16);
  for (size_t I = 0; I < N; ++I)
    for (size_t K = 0; K < 16; ++K)
      X.at(I, K) = Base.at(I % Bases, K);
  Matrix G = X.multiply(X.transposed());
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      G.at(J, I) = G.at(I, J);
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, ConstructionAndFill) {
  Matrix M(2, 3, 1.5);
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 3u);
  for (size_t I = 0; I < 2; ++I)
    for (size_t J = 0; J < 3; ++J)
      EXPECT_DOUBLE_EQ(M.at(I, J), 1.5);
}

TEST(MatrixTest, IdentityMultiplication) {
  Matrix A = Matrix::fromRows({{1, 2}, {3, 4}});
  Matrix I = Matrix::identity(2);
  EXPECT_DOUBLE_EQ(A.multiply(I).maxAbsDiff(A), 0.0);
  EXPECT_DOUBLE_EQ(I.multiply(A).maxAbsDiff(A), 0.0);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix A = Matrix::fromRows({{1, 2}, {3, 4}});
  Matrix B = Matrix::fromRows({{5, 6}, {7, 8}});
  Matrix C = A.multiply(B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(MatrixTest, TransposedTwiceIsIdentity) {
  Matrix A = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_DOUBLE_EQ(A.transposed().transposed().maxAbsDiff(A), 0.0);
  EXPECT_DOUBLE_EQ(A.transposed().at(2, 1), 6);
}

TEST(MatrixTest, SymmetryCheck) {
  EXPECT_TRUE(Matrix::fromRows({{1, 2}, {2, 1}}).isSymmetric());
  EXPECT_FALSE(Matrix::fromRows({{1, 2}, {3, 1}}).isSymmetric());
  EXPECT_FALSE(Matrix(2, 3).isSymmetric()); // Non-square.
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix A = Matrix::fromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(A.frobeniusNorm(), 5.0);
}

TEST(MatrixTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
}

//===----------------------------------------------------------------------===//
// Symmetric eigendecomposition
//===----------------------------------------------------------------------===//

TEST(EigenTest, DiagonalMatrix) {
  Matrix A = Matrix::fromRows({{3, 0}, {0, 1}});
  EigenDecomposition E = eigenSymmetric(A);
  ASSERT_EQ(E.Values.size(), 2u);
  EXPECT_NEAR(E.Values[0], 3.0, 1e-12);
  EXPECT_NEAR(E.Values[1], 1.0, 1e-12);
  EXPECT_TRUE(E.Converged);
}

TEST(EigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix A = Matrix::fromRows({{2, 1}, {1, 2}});
  EigenDecomposition E = eigenSymmetric(A);
  EXPECT_NEAR(E.Values[0], 3.0, 1e-10);
  EXPECT_NEAR(E.Values[1], 1.0, 1e-10);
}

TEST(EigenTest, ReconstructionMatchesInput) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Matrix A = randomSymmetric(12, Seed);
    EigenDecomposition E = eigenSymmetric(A);
    EXPECT_LT(reconstruct(E).maxAbsDiff(A), 1e-8);
  }
}

TEST(EigenTest, EigenvectorsOrthonormal) {
  Matrix A = randomSymmetric(10, 99);
  EigenDecomposition E = eigenSymmetric(A);
  Matrix VtV = E.Vectors.transposed().multiply(E.Vectors);
  EXPECT_LT(VtV.maxAbsDiff(Matrix::identity(10)), 1e-8);
}

TEST(EigenTest, ValuesSortedDescending) {
  Matrix A = randomSymmetric(15, 5);
  EigenDecomposition E = eigenSymmetric(A);
  for (size_t I = 1; I < E.Values.size(); ++I)
    EXPECT_GE(E.Values[I - 1], E.Values[I]);
}

TEST(EigenTest, TraceEqualsEigenvalueSum) {
  Matrix A = randomSymmetric(9, 77);
  EigenDecomposition E = eigenSymmetric(A);
  double Trace = 0.0, Sum = 0.0;
  for (size_t I = 0; I < 9; ++I)
    Trace += A.at(I, I);
  for (double V : E.Values)
    Sum += V;
  EXPECT_NEAR(Trace, Sum, 1e-9);
}

TEST(EigenTest, OneByOne) {
  Matrix A = Matrix::fromRows({{42}});
  EigenDecomposition E = eigenSymmetric(A);
  ASSERT_EQ(E.Values.size(), 1u);
  EXPECT_DOUBLE_EQ(E.Values[0], 42.0);
}

TEST(EigenTest, EigenvectorSignsFollowTheConvention) {
  for (size_t N : {2u, 7u, 40u})
    for (uint64_t Seed : {3u, 4u}) {
      SCOPED_TRACE(testing::Message() << "N=" << N << " seed=" << Seed);
      expectSignConvention(eigenSymmetric(randomSymmetric(N, Seed)));
    }
  // [[0,1],[1,0]]: eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2, whose
  // components tie in magnitude, so the first one is positive.
  EigenDecomposition Swap = eigenSymmetric(Matrix::fromRows({{0, 1}, {1, 0}}));
  expectSignConvention(Swap);
  EXPECT_GT(Swap.Vectors.at(0, 1), 0.0);
  EXPECT_LT(Swap.Vectors.at(1, 1), 0.0);
}

TEST(EigenTest, DiagonalMatrixGivesPositiveUnitVectors) {
  Matrix A = Matrix::fromRows(
      {{1, 0, 0, 0}, {0, 5, 0, 0}, {0, 0, -3, 0}, {0, 0, 0, 2}});
  EigenDecomposition E = eigenSymmetric(A);
  ASSERT_TRUE(E.Converged);
  const std::vector<double> Values = {5, 2, 1, -3};
  const std::vector<size_t> Axis = {1, 3, 0, 2};
  for (size_t J = 0; J < 4; ++J) {
    EXPECT_DOUBLE_EQ(E.Values[J], Values[J]);
    for (size_t I = 0; I < 4; ++I)
      EXPECT_DOUBLE_EQ(E.Vectors.at(I, J), I == Axis[J] ? 1.0 : 0.0);
  }
  expectSignConvention(E);
}

TEST(EigenTest, EmptyMatrixIsConverged) {
  EigenDecomposition E = eigenSymmetric(Matrix());
  EXPECT_TRUE(E.Converged);
  EXPECT_TRUE(E.Values.empty());
  EXPECT_EQ(E.Vectors.rows(), 0u);
}

TEST(EigenTest, OneByOneIsExact) {
  for (double V : {-3.25, 0.0, 1e-300, 7.5e200}) {
    EigenDecomposition E = eigenSymmetric(Matrix::fromRows({{V}}));
    EXPECT_TRUE(E.Converged);
    ASSERT_EQ(E.Values.size(), 1u);
    EXPECT_EQ(E.Values[0], V);
    EXPECT_EQ(E.Vectors.at(0, 0), 1.0);
  }
}

TEST(EigenTest, NaNInputIsNotConverged) {
  Matrix A = randomSymmetric(6, 12);
  A.at(2, 4) = A.at(4, 2) = std::numeric_limits<double>::quiet_NaN();
  EigenDecomposition E = eigenSymmetric(A);
  EXPECT_FALSE(E.Converged);
  ASSERT_EQ(E.Values.size(), 6u);
  for (double V : E.Values)
    EXPECT_TRUE(std::isnan(V));
  // The repair propagates the NaN instead of zeroing the matrix.
  EXPECT_TRUE(std::isnan(projectToPsdIfNeeded(A).at(0, 0)));
}

TEST(EigenTest, InfiniteInputIsNotConverged) {
  Matrix A = randomSymmetric(5, 13);
  A.at(1, 1) = std::numeric_limits<double>::infinity();
  EigenDecomposition E = eigenSymmetric(A);
  EXPECT_FALSE(E.Converged);
  ASSERT_EQ(E.Values.size(), 5u);
  for (double V : E.Values)
    EXPECT_TRUE(std::isnan(V));
}

TEST(EigenTest, OverflowingIterationIsNotConverged) {
  // Finite input whose eigenvalue 2e308 is not representable: the
  // iteration overflows, and the NaN it breeds never meets the QL
  // stopping test, so the per-eigenvalue cap ends it.
  Matrix A = Matrix::fromRows({{1e308, 1e308}, {1e308, 1e308}});
  EigenDecomposition E = eigenSymmetric(A);
  EXPECT_FALSE(E.Converged);
  ASSERT_EQ(E.Values.size(), 2u);
  EXPECT_TRUE(std::isnan(E.Values[0]));
}

namespace {

enum class Shape { Random, NegativeDefinite, RepeatedEigenvalues, DuplicatedRows };

/// The spectrum withSpectrum builds for RepeatedEigenvalues: three
/// values, each repeated about N/3 times.
std::vector<double> repeatedSpectrum(size_t N) {
  std::vector<double> Spectrum(N);
  for (size_t I = 0; I < N; ++I)
    Spectrum[I] = std::vector<double>{3.0, -1.0, 0.5}[I % 3];
  return Spectrum;
}

/// Distinct bases of the DuplicatedRows shape: 22 copies per base, as
/// in the cluster_kast corpus.
size_t basesFor(size_t N) { return std::max<size_t>(1, N / 22); }

Matrix makeShape(Shape S, size_t N) {
  switch (S) {
  case Shape::Random:
    return randomSymmetric(N, 100 + N);
  case Shape::NegativeDefinite: {
    // -(M M^T) - I: every eigenvalue <= -1.
    Matrix M = randomMatrix(N, N, 200 + N);
    Matrix A = M.multiply(M.transposed());
    for (size_t I = 0; I < N; ++I) {
      A.at(I, I) = -A.at(I, I) - 1.0;
      for (size_t J = I + 1; J < N; ++J)
        A.at(I, J) = A.at(J, I) = -A.at(I, J);
    }
    return A;
  }
  case Shape::RepeatedEigenvalues:
    return withSpectrum(repeatedSpectrum(N), 300 + N);
  case Shape::DuplicatedRows:
    return duplicatedRowsGram(N, basesFor(N), 400 + N);
  }
  return Matrix();
}

class EigenSweep
    : public ::testing::TestWithParam<std::tuple<Shape, size_t>> {};

std::string sweepCaseName(
    const ::testing::TestParamInfo<EigenSweep::ParamType> &Info) {
  static const char *const Names[] = {"Random", "NegativeDefinite",
                                      "RepeatedEigenvalues",
                                      "DuplicatedRows"};
  return std::string(Names[static_cast<int>(std::get<0>(Info.param))]) +
         "_N" + std::to_string(std::get<1>(Info.param));
}

} // namespace

TEST_P(EigenSweep, ResidualsStayWithinTheBound) {
  const auto [S, N] = GetParam();
  Matrix A = makeShape(S, N);
  EigenDecomposition E = eigenSymmetric(A);
  ASSERT_TRUE(E.Converged);
  ASSERT_EQ(E.Values.size(), N);

  // Measured worst case over the sweep: 4.3e-14 * max(1, ||A||max) for
  // ||AV - V.Lambda||max and 5.9e-15 for ||V^T V - I||max, both at
  // N = 300; the bound leaves over three orders of magnitude.
  const double Tol = 1e-10 * std::max(1.0, maxAbs(A));
  EXPECT_LE(eigenResidual(A, E), Tol);
  EXPECT_LE(orthogonalityError(E), Tol);
  for (size_t I = 1; I < N; ++I)
    EXPECT_GE(E.Values[I - 1], E.Values[I]);
  expectSignConvention(E);

  switch (S) {
  case Shape::Random:
    break;
  case Shape::NegativeDefinite:
    EXPECT_LE(E.Values.front(), -1.0 + Tol);
    break;
  case Shape::RepeatedEigenvalues: {
    std::vector<double> Expected = repeatedSpectrum(N);
    std::sort(Expected.rbegin(), Expected.rend());
    for (size_t I = 0; I < N; ++I)
      EXPECT_NEAR(E.Values[I], Expected[I], Tol);
    break;
  }
  case Shape::DuplicatedRows: {
    // Exactly min(bases, 16) eigenvalues are clear of zero.
    size_t Rank = 0;
    for (double V : E.Values)
      Rank += std::fabs(V) > Tol;
    EXPECT_EQ(Rank, std::min<size_t>(basesFor(N), 16));
    break;
  }
  }
}

TEST_P(EigenSweep, RepairLeavesANonNegativeSpectrumBitIdentical) {
  // Shift the shape to a spectrum >= 1: no eigenvalue can round below
  // zero, so projectToPsdIfNeeded must hand its input back untouched.
  const auto [S, N] = GetParam();
  Matrix A = makeShape(S, N);
  Matrix Shifted = A.multiply(A);
  for (size_t I = 0; I < N; ++I) {
    Shifted.at(I, I) += 1.0;
    for (size_t J = I + 1; J < N; ++J)
      Shifted.at(J, I) = Shifted.at(I, J);
  }
  Matrix Repaired = projectToPsdIfNeeded(Shifted);
  EXPECT_TRUE(Repaired.data() == Shifted.data());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EigenSweep,
    ::testing::Combine(::testing::Values(Shape::Random,
                                         Shape::NegativeDefinite,
                                         Shape::RepeatedEigenvalues,
                                         Shape::DuplicatedRows),
                       ::testing::Values(1u, 2u, 50u, 300u)),
    sweepCaseName);

//===----------------------------------------------------------------------===//
// PSD projection (paper §4.1 negative-eigenvalue repair)
//===----------------------------------------------------------------------===//

TEST(PsdTest, AlreadyPsdIsUnchanged) {
  // Gram matrix of two vectors: PSD by construction.
  Matrix K = Matrix::fromRows({{2, 1}, {1, 2}});
  Matrix P = projectToPsd(K);
  EXPECT_LT(P.maxAbsDiff(K), 1e-9);
}

TEST(PsdTest, IndefiniteGetsRepaired) {
  // [[0,1],[1,0]] has eigenvalues +1 and -1.
  Matrix K = Matrix::fromRows({{0, 1}, {1, 0}});
  EXPECT_LT(minEigenvalue(K), -0.9);
  Matrix P = projectToPsd(K);
  EXPECT_GE(minEigenvalue(P), -1e-10);
  // The positive eigenpair is retained: P = 0.5 * [[1,1],[1,1]].
  EXPECT_NEAR(P.at(0, 0), 0.5, 1e-10);
  EXPECT_NEAR(P.at(0, 1), 0.5, 1e-10);
}

TEST(PsdTest, RandomMatricesBecomePsd) {
  for (uint64_t Seed : {10u, 20u, 30u}) {
    Matrix A = randomSymmetric(8, Seed);
    Matrix P = projectToPsd(A);
    EXPECT_TRUE(P.isSymmetric(1e-9));
    EXPECT_GE(minEigenvalue(P), -1e-8);
  }
}

TEST(PsdTest, ProjectionIsIdempotent) {
  Matrix A = randomSymmetric(7, 4);
  Matrix P1 = projectToPsd(A);
  Matrix P2 = projectToPsd(P1);
  EXPECT_LT(P2.maxAbsDiff(P1), 1e-8);
}

//===----------------------------------------------------------------------===//
// Double centering
//===----------------------------------------------------------------------===//

TEST(CenteringTest, RowAndColumnMeansVanish) {
  Matrix K = randomSymmetric(6, 8);
  Matrix C = doubleCenter(K);
  for (size_t I = 0; I < 6; ++I) {
    double RowSum = 0.0;
    for (size_t J = 0; J < 6; ++J)
      RowSum += C.at(I, J);
    EXPECT_NEAR(RowSum, 0.0, 1e-9);
  }
  EXPECT_TRUE(C.isSymmetric(1e-9));
}

TEST(CenteringTest, CenteringIsIdempotent) {
  Matrix K = randomSymmetric(5, 21);
  Matrix C1 = doubleCenter(K);
  Matrix C2 = doubleCenter(C1);
  EXPECT_LT(C2.maxAbsDiff(C1), 1e-10);
}
