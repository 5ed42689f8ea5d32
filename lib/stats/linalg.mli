(** Minimal linear algebra: just enough to solve the hitting-time
    systems of {!Jamming_core.Markov} (a few hundred unknowns). *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a · x = b] by Gaussian elimination with partial
    pivoting.  [a] is an array of rows; neither [a] nor [b] is
    modified.  Elimination is confined to the band of [a]'s non-zeros:
    O(n·l·(l+u)) for lower and upper bandwidths [l] and [u] (plus the
    O(n²) copy), O(n³) for a dense matrix, with the result of the full
    dense elimination either way.
    Requires a square, non-singular system.  Raises [Invalid_argument]
    on shape mismatch, [Failure] on a (numerically) singular matrix. *)

val mat_vec : float array array -> float array -> float array
(** Matrix–vector product, for residual checks. *)

val residual_norm : float array array -> float array -> float array -> float
(** [‖a·x − b‖∞]. *)
