open Fp_core
module BB = Fp_milp.Branch_bound
module Skyline = Fp_geometry.Skyline

type solve = { outcome : BB.outcome; seconds : float; alloc_bytes : float }

type attempt = {
  covering_s : float;
  warm_s : float;
  build_s : float;
  seq : solve;
  par : solve option;
}

type step = {
  index : int;
  capture : Workload.capture;
  attempts : attempt list;
  root_solve_s : float;
  lint_s : float;
  mismatches : string list;
}

let used w a =
  match a.par with Some p when w.Workload.jobs > 1 -> p | _ -> a.seq

(* The node budget of an attempt, as the engine escalates it. *)
let node_limit w ~retry =
  let cfg = Workload.config w in
  let n =
    float_of_int w.Workload.nodes
    *. (cfg.Augment.retry_escalation ** float_of_int retry)
  in
  if n > 10_000_000. then 10_000_000 else int_of_float n

let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0, Gc.allocated_bytes () -. a0)

let rebuild w (b : Formulation.built) =
  let cfg = Workload.config w in
  Formulation.build ~chip_width:b.Formulation.chip_width
    ~height_bound:b.Formulation.height_bound ~objective:cfg.Augment.objective
    ~formulation:cfg.Augment.formulation
    ~allow_rotation:cfg.Augment.allow_rotation
    ~linearization:cfg.Augment.linearization ~fixed:b.Formulation.fixed
    ~check:cfg.Augment.check
    (Array.to_list b.Formulation.items)

let search w ?pool ~jobs ~node_limit ~warm (built : Formulation.built) =
  let cfg = Workload.config w in
  let params =
    { cfg.Augment.milp with
      BB.node_limit; jobs;
      propagate = cfg.Augment.formulation <> Formulation.Basic }
  in
  let warm_sol =
    try
      Some
        (Formulation.assign_warm built
           (fun k -> warm.(k).Warm_start.envelope)
           ~rotated:(fun k -> warm.(k).Warm_start.rotated))
    with Invalid_argument _ -> None
  in
  let outcome, seconds, alloc_bytes =
    timed (fun () ->
        BB.solve ~params ?warm:warm_sol ?pool
          ?cutter:(Formulation.separator built)
          ~cut_pool:built.Formulation.cut_candidates built.Formulation.model)
  in
  ({ outcome; seconds; alloc_bytes }, warm_sol)

let same_counts (o : BB.outcome) (s : Augment.step_stat) =
  o.BB.status = s.Augment.milp_status
  && o.BB.nodes = s.Augment.nodes
  && o.BB.lp_solves = s.Augment.lp_solves
  && o.BB.warm_hits = s.Augment.warm_hits
  && o.BB.cold_solves = s.Augment.cold_solves
  && o.BB.refactorizations = s.Augment.refactorizations
  && o.BB.pivots = s.Augment.pivots

(* The engine retries only on a budget shortfall: no incumbent at all,
   or an incumbent that is still the warm packing. *)
let fell_short (o : BB.outcome) warm_sol =
  match (o.BB.best, warm_sol) with
  | None, _ -> o.BB.status = BB.No_solution
  | Some (x, _), Some w -> o.BB.status <> BB.Optimal && x = w
  | Some _, None -> false

let best_point (o : BB.outcome) = Option.map fst o.BB.best

let replay_step ?trace ~pool w index (c : Workload.capture) =
  let span name f =
    match trace with
    | None -> f ()
    | Some t -> Trace.with_span t ~step:index name f
  in
  let cfg = Workload.config w in
  let b = c.Workload.built in
  let stat = c.Workload.stat in
  let mismatches = ref [] in
  let mismatch fmt =
    Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt
  in
  let width = b.Formulation.chip_width in
  let skyline =
    Skyline.of_rects ~width (Placement.envelopes c.Workload.before)
  in
  let attempt retry =
    let node_limit = node_limit w ~retry in
    let cover, covering_s, _ =
      timed (fun () ->
          span "covering.of_skyline" (fun () ->
              let cover = Fp_geometry.Covering.of_skyline skyline in
              match cfg.Augment.max_cover_rects with
              | Some m when List.length cover > m ->
                Fp_geometry.Covering.coarsen ~max_count:m cover
              | Some _ | None -> cover))
    in
    if cover <> b.Formulation.fixed then
      mismatch "attempt %d: covering differs from the model's fixed rects"
        retry;
    let obstacle_sky =
      List.fold_left Skyline.add_rect (Skyline.create ~width) cover
    in
    let warm, warm_s, _ =
      timed (fun () ->
          span "warm_start.place_group" (fun () ->
              Warm_start.place_group ~skyline:obstacle_sky
                ~allow_rotation:cfg.Augment.allow_rotation
                ~linearization:cfg.Augment.linearization b.Formulation.items))
    in
    let warm_height = Warm_start.height_after ~skyline:obstacle_sky warm in
    if warm_height <> stat.Augment.warm_height then
      mismatch "attempt %d: warm height %g, step recorded %g" retry warm_height
        stat.Augment.warm_height;
    let built, build_s, _ =
      timed (fun () -> span "formulation.build" (fun () -> rebuild w b))
    in
    let seq, warm_sol =
      span "branch_bound.solve" (fun () ->
          search w ~jobs:1 ~node_limit ~warm built)
    in
    let committed = retry = stat.Augment.retries in
    let par =
      if committed || w.Workload.jobs > 1 then
        Some
          (fst
             (span "branch_bound.solve.pool" (fun () ->
                  search w ~pool ~jobs:(Fp_util.Pool.jobs pool) ~node_limit
                    ~warm (rebuild w b))))
      else None
    in
    (match par with
    | Some par
      when best_point par.outcome <> best_point seq.outcome
           || par.outcome.BB.status <> seq.outcome.BB.status ->
      mismatch "attempt %d: the parallel search differs from jobs=1" retry
    | _ -> ());
    (* The step recorded the search it ran: on the pool, that count
       includes the speculative work the replay discarded. *)
    let o =
      match par with
      | Some par when w.Workload.jobs > 1 -> par.outcome
      | _ -> seq.outcome
    in
    if committed then begin
      if Fp_milp.Model.num_constrs built.Formulation.model
         <> stat.Augment.num_constraints
         || Fp_milp.Model.num_integer_vars built.Formulation.model
            <> stat.Augment.num_integer_vars
      then mismatch "rebuilt model differs in size";
      if not (same_counts o stat) then
        mismatch "nodes %d pivots %d, step recorded nodes %d pivots %d"
          o.BB.nodes o.BB.pivots stat.Augment.nodes stat.Augment.pivots
    end
    else if not (fell_short seq.outcome warm_sol) then
      mismatch "attempt %d did not fall short of its budget" retry;
    { covering_s; warm_s; build_s; seq; par }
  in
  span "replay.step" @@ fun () ->
  let attempts = List.init (stat.Augment.retries + 1) attempt in
  let _, root_solve_s, _ =
    let lp = Fp_milp.Model.problem (rebuild w b).Formulation.model in
    timed (fun () ->
        span "revised.solve.root" (fun () -> Fp_lp.Revised.solve lp))
  in
  (* The checking workload lints every model in its own plan. *)
  let lint_s =
    if w.Workload.checking then 0.
    else
      let fresh = rebuild w b in
      let _, t, _ =
        timed (fun () ->
            span "lint.formulation" (fun () -> Fp_check.Lint.formulation fresh))
      in
      t
  in
  { index; capture = c; attempts; root_solve_s; lint_s;
    mismatches = List.rev !mismatches }

let run ?trace ~pool w captures =
  List.mapi (fun i c -> replay_step ?trace ~pool w (i + 1) c) captures
