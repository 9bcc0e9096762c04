(** Static analysis of MILP models before they reach the solver.

    Hand-built big-M formulations are a classic source of silent modeling
    bugs (Huchette–Dey–Vielma, "Strong mixed-integer formulations for the
    floor layout problem"): a big-M constant smaller than the span of its
    disjunct silently clips the feasible region, one a thousand times too
    large wrecks numerical conditioning, and a dropped disjunction lets
    modules overlap with no solver error.  {!model} walks a
    {!Fp_milp.Model} and emits structured {!Diagnostic.t}s for these and
    other pathologies; {!formulation} additionally audits the structural
    invariants of a floorplanning subproblem (every pair of objects must
    carry a non-overlap separation).

    The big-M analysis is sound but two-staged: cheap interval arithmetic
    over (tightened) variable bounds first; rows it cannot clear are
    re-examined with an exact LP — maximize the row's left-hand side over
    the rest of the model with the row's slack binaries pinned to their
    deactivating values — so correlated variables (e.g. [x_i + w_i <= W]
    elsewhere in the model) do not produce false positives.  The LP
    probes are solved by {!Fp_lp.Revised.probe_sup_ws}, one workspace per
    {!model} call, and stop as soon as they prove the row vacuous.

    Diagnostic codes are catalogued with triggering examples in
    [docs/analysis.md]. *)

module Model = Fp_milp.Model

type context = {
  slack_binaries : Model.var list option;
      (** Binaries acting as big-M disjunct switches.  [None] (default)
          uses the binaries declared in {!Model.pairs}; the formulation
          lint passes the exact switch set recorded in
          {!Fp_core.Formulation.built.seps}, which also covers the
          single-binary [Choice2] separations. *)
  refine_lp : bool;
      (** Re-examine interval-suspicious big-M rows with an exact LP
          (default [true]).  When off, the interval verdict decides with
          {!field-margin}. *)
  margin : float;
      (** Without LP refinement, a big-M deficit is an Error only when it
          exceeds this fraction of the required span (default [0.25]) —
          interval arithmetic overestimates the span of correlated terms,
          and the margin absorbs that. *)
  loose_factor : float;
      (** A big-M is flagged as needlessly large (conditioning warning)
          when its deactivation capacity exceeds this multiple of the
          required span (default [1e3]).  Applies to rows whose switches
          belong to no declared disjunction pair; pair-owned rows use
          {!field-pair_loose_factor} instead. *)
  pair_loose_factor : float;
      (** Per-pair over-wide threshold (default [64.]): a declared
          disjunction pair is flagged (one ML009 for the pair, naming its
          worst row) only when {e every} direction row of the pair
          exceeds this multiple of its required span — a single loose
          direction is normal even under exact per-pair coefficients,
          while all four loose means the constants ignore the pair's
          actual geometry.  The [tight]/[cuts] formulations' per-pair
          big-Ms lint clean here; an oversized global-M model does not. *)
}

val default_context : context

val model : ?context:context -> Model.t -> Diagnostic.t list
(** Lint one model.  Checks (codes ML001–ML010, see docs/analysis.md):
    infeasible variable bound pairs; variables in no constraint;
    unbounded continuous variables with objective coefficients; trivially
    infeasible and vacuous rows; duplicate / parallel rows; per-row
    coefficient dynamic range; big-M constants too small to deactivate
    their disjunct or needlessly large; binaries not covered by any
    {!Model.declare_pair}. *)

val formulation : Fp_core.Formulation.built -> Diagnostic.t list
(** {!model} with the exact slack-binary set of the formulation, plus the
    structural checks (codes FL001–FL003): every item pair and every
    item–fixed-rectangle pair must carry a separation entry, and every
    fixed (covering) rectangle must lie inside the chip strip. *)
