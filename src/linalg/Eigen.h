//===- linalg/Eigen.h - Symmetric eigensolver and PSD repair ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense symmetric eigendecomposition, plus the two kernel-matrix
/// transformations the paper's evaluation pipeline needs:
///
///  * PSD projection — Section 4.1: "If the matrices presented negative
///    eigenvalues, they were replaced by zero and the matrices
///    rebuilt." Implemented as V * max(D, 0) * V^T.
///  * double centering — the feature-space centering step of Kernel PCA
///    (Schoelkopf et al., 1997): K' = K - 1K - K1 + 1K1.
///
/// The solver is the standard dense one: Householder reduction to
/// tridiagonal form followed by implicit-shift QL with eigenvector
/// accumulation (EISPACK tred2/tql2, as in the public-domain JAMA
/// package). Its cost is O(N^3), a few N^3 flops in all, with no sweep
/// count that grows with N. Every inner loop walks a contiguous row:
/// the solver keeps the eigenvectors as rows of a working matrix and
/// transposes once at the end.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_LINALG_EIGEN_H
#define KAST_LINALG_EIGEN_H

#include "linalg/Matrix.h"

#include <vector>

namespace kast {

/// Result of a symmetric eigendecomposition A = V * diag(Values) * V^T.
struct EigenDecomposition {
  /// Eigenvalues sorted in descending order.
  std::vector<double> Values;
  /// Column j of this matrix is the eigenvector for Values[j], of unit
  /// length. Its sign is fixed: the component of largest magnitude is
  /// positive (the lowest row index wins a tie), so the result does not
  /// depend on the solver's iteration order.
  Matrix Vectors;
  /// False if the input held a NaN or an infinity, if a QL iteration
  /// hit its per-eigenvalue cap, or if the result is not finite; Values
  /// and Vectors are then all NaN.
  bool Converged = false;
};

/// Computes the full eigendecomposition of symmetric \p A. N = 0 gives
/// an empty, converged result; N = 1 is exact.
///
/// \pre A.isSymmetric(). Asserts on non-square input.
EigenDecomposition eigenSymmetric(const Matrix &A);

/// Clips negative eigenvalues to zero and rebuilds the matrix,
/// returning the nearest (Frobenius) positive semi-definite matrix.
/// The result is exactly symmetric, and bit-identical whatever the
/// number of threads the rebuild runs on.
Matrix projectToPsd(const Matrix &A);

/// Like projectToPsd, but returns \p A unchanged when its spectrum is
/// already non-negative — and decides that from the same single
/// eigendecomposition the rebuild uses, where the minEigenvalue-then-
/// projectToPsd sequence costs two.
Matrix projectToPsdIfNeeded(const Matrix &A);

/// \returns the smallest eigenvalue of symmetric \p A.
double minEigenvalue(const Matrix &A);

/// Double-centers a Gram matrix: K' = K - 1K - K1 + 1K1 where 1 is the
/// constant 1/n matrix. After centering the implicit feature vectors
/// have zero mean.
Matrix doubleCenter(const Matrix &K);

} // namespace kast

#endif // KAST_LINALG_EIGEN_H
