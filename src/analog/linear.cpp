#include "analog/linear.hpp"

#include <cmath>

namespace gfi::analog {

bool luSolveInPlace(DenseMatrix& A, std::vector<double>& b)
{
    const int n = A.size();
    if (n == 0) {
        return true;
    }

    for (int k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude in column k.
        int pivot = k;
        double best = std::fabs(A.at(k, k));
        for (int r = k + 1; r < n; ++r) {
            const double mag = std::fabs(A.at(r, k));
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best < 1e-300) {
            return false; // singular
        }
        if (pivot != k) {
            for (int c = 0; c < n; ++c) {
                std::swap(A.at(k, c), A.at(pivot, c));
            }
            std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(pivot)]);
        }
        // Eliminate below the pivot.
        const double inv = 1.0 / A.at(k, k);
        for (int r = k + 1; r < n; ++r) {
            const double factor = A.at(r, k) * inv;
            if (factor == 0.0) {
                continue;
            }
            A.at(r, k) = 0.0;
            for (int c = k + 1; c < n; ++c) {
                A.at(r, c) -= factor * A.at(k, c);
            }
            b[static_cast<std::size_t>(r)] -= factor * b[static_cast<std::size_t>(k)];
        }
    }

    // Back substitution.
    for (int r = n - 1; r >= 0; --r) {
        double acc = b[static_cast<std::size_t>(r)];
        for (int c = r + 1; c < n; ++c) {
            acc -= A.at(r, c) * b[static_cast<std::size_t>(c)];
        }
        b[static_cast<std::size_t>(r)] = acc / A.at(r, r);
    }
    return true;
}

} // namespace gfi::analog
