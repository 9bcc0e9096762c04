(** Two-phase primal simplex with implicit variable bounds.

    This is the replacement for the LINDO package the paper calls as a
    black box (section 3).  It is a dense full-tableau implementation of
    the bounded-variable simplex method (Chvátal, ch. 8):

    - general bounds [lo <= x <= up] are handled implicitly — nonbasic
      variables rest at either bound and may "bound-flip" without a basis
      change, so the 0–1 variables of the floorplanning MILP never cost a
      tableau row;
    - free and upper-bounded-only variables are standardized by splitting /
      mirroring;
    - phase 1 minimizes the sum of artificial variables (artificials are
      only created for rows whose slack cannot seed the basis);
    - Dantzig pricing with an automatic switch to Bland's rule after a run
      of degenerate pivots, which guarantees termination.

    The solver is deterministic: the same problem always takes the same
    pivot sequence. *)

type result =
  | Optimal of { x : float array; obj : float }
      (** [x] is indexed by {!Lp_problem.var} handles; [obj] is the
          objective of the {e original} problem (sense respected). *)
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The pivot budget was exhausted before optimality was proven. *)

type stats = {
  phase1_iters : int;
  phase2_iters : int;
  rows : int;
  cols : int;
}

val solve : ?max_iters:int -> Lp_problem.t -> result
(** Solve the LP.  [max_iters] bounds the {e total} number of pivots
    across both phases (default [50 * (rows + cols) + 2000]). *)

val solve_with_stats : ?max_iters:int -> Lp_problem.t -> result * stats
