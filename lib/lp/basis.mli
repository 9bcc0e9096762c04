(** Factorized simplex basis.

    Holds a sparse LU factorization (partial pivoting) of an [m x m]
    basis matrix drawn from the columns of a sparse constraint matrix,
    plus a product-form eta file for cheap rank-one column replacements.
    After {!Basis.refactor_every} updates the eta file is discarded and
    the basis refactorized from scratch, bounding both memory and the
    accumulated floating-point error — the classic revised-simplex
    lifecycle.

    A {!factor} is immutable once built and depends only on the matrix
    and the basis, so any number of {!t} may start from the same one
    (the branch-and-bound's sibling nodes do).  A {!t} is the mutable
    state of one solve; it works in a {!scratch} that serves one live
    {!t} at a time and must stay on one domain.

    Used by {!Revised}; the dense tableau solver {!Simplex} does not need
    it. *)

type mat = {
  m : int;  (** number of rows *)
  col_start : int array;
      (** column [j]'s entries are [col_start.(j) .. col_start.(j+1) - 1] *)
  row_idx : int array;  (** row of each entry *)
  coef : float array;  (** value of each entry *)
}
(** A sparse matrix in compressed-column (CSC) form. *)

type scratch
(** Elimination matrix, solve temporary and eta file, grown on demand
    to the largest row count seen. *)

val scratch : unit -> scratch

type factor
(** [P B = L U] for one basis: strict [L] stored column by column and
    strict [U] row by row, exact zeros dropped, [U]'s diagonal apart. *)

type t

val pivot_tol : float
(** Pivot elements at or below this magnitude are rejected ([1e-10]). *)

val refactor_every : int
(** Eta-file length that triggers a refactorization ([64]). *)

val factorize : scratch -> mat -> int array -> (factor, [ `Singular ]) result
(** [factorize sc mat basis] factorizes the matrix whose [j]-th column is
    column [basis.(j)] of [mat]: in column [k], the first row of largest
    magnitude becomes the pivot.  The basis array is copied. *)

val permutation : factor -> int array
(** Row [i] of the factored matrix is row [(permutation f).(i)] of the
    basis matrix. *)

val pivots : factor -> float array
(** The pivots (the diagonal of [U]), in elimination order. *)

val of_factor : scratch -> mat -> factor -> t
(** A fresh solve state on an existing factor (empty eta file).  The
    factor must come from the same matrix values. *)

val create : scratch -> mat -> int array -> (t, [ `Singular ]) result
(** {!factorize} then {!of_factor}. *)

val basis : t -> int array
(** The live basis array: entry [i] is the column basic in row position
    [i].  Updated in place by {!update}; callers must not mutate it. *)

val refactorizations : t -> int
(** Refactorizations performed since the state was made (excluding the
    factorization it started from). *)

val refactorize : t -> (unit, [ `Singular ]) result
(** Force a fresh factorization of the current basis, discarding the eta
    file.  The factor the state started from is left untouched. *)

val ftran : t -> float array -> unit
(** [ftran t v] solves [B x = v] in place (forward transformation). *)

val btran : t -> float array -> unit
(** [btran t v] solves [B^T x = v] in place (backward transformation). *)

val update :
  t ->
  row:int ->
  col:int ->
  d:float array ->
  ([ `Updated | `Refactored ], [ `Singular | `Tiny_pivot ]) result
(** [update t ~row ~col ~d] replaces the basic column in position [row]
    by [col], where [d = B^-1 a_col] is the transformed entering column
    (so [d.(row)] is the pivot element).  Appends an eta matrix, or
    refactorizes when the eta file is full.  [`Tiny_pivot] leaves the
    basis unchanged; [`Singular] can only arise from the embedded
    refactorization. *)
