module Tol = Fp_geometry.Tol
module Augment = Fp_core.Augment
module Degradation = Fp_core.Degradation
module Pool = Fp_util.Pool
module Rng = Fp_util.Rng

let src = Logs.Src.create "fp.portfolio" ~doc:"solver portfolio racer"

module Log = (val Logs.src_log src : Logs.LOG)

type entry = { solver_name : string; outcome : Solver.outcome }

type report = {
  winner : entry option;
  entries : entry list;
  wall_time : float;
}

(* Outcome for an engine that died: no plan, zero effort. *)
let failed_outcome ~engine ~wall_time msg =
  {
    Solver.plan = None;
    stats =
      {
        Solver.engine; wall_time; work = 0; objective = infinity;
        certified = false; complete = false;
        degradations = [ (0, Degradation.Engine_failed msg) ]; detail = [];
      };
  }

let race ?jobs ~engines ~scenario nl =
  if engines = [] then invalid_arg "Portfolio.race: no engines";
  let t0 = Unix.gettimeofday () in
  let engines = Array.of_list engines in
  let n = Array.length engines in
  let jobs = Int.max 1 (Int.min n (Option.value jobs ~default:n)) in
  let deadline =
    Option.map (fun b -> t0 +. b) scenario.Solver.time_budget
  in
  let run_one i =
    let s = engines.(i) in
    (* A private RNG seeded identically for every engine (streams must
       not depend on pool scheduling) and the shared absolute deadline. *)
    let ctx = { Solver.rng = Rng.create scenario.Solver.seed; deadline } in
    let started = Unix.gettimeofday () in
    try s.Solver.solve ctx scenario nl with
    | Augment.Abort ->
      (* A hook's cooperative interrupt is the caller's request, not an
         engine failure. *)
      raise Augment.Abort
    | exn ->
      let msg = Printexc.to_string exn in
      Log.warn (fun f -> f "engine %s failed: %s" s.Solver.name msg);
      failed_outcome ~engine:s.Solver.name
        ~wall_time:(Unix.gettimeofday () -. started) msg
  in
  let outcomes =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool ~n (fun ~worker:_ i -> run_one i))
  in
  let entries =
    List.init n (fun i ->
        { solver_name = engines.(i).Solver.name; outcome = outcomes.(i) })
  in
  (* Winner: lowest scenario objective among certified outcomes, ties to
     the earliest engine in the given order.  The fold keeps the first
     strictly-better entry, so the selection is a pure function of the
     per-engine results — deterministic whenever they are. *)
  let winner =
    List.fold_left
      (fun acc e ->
        if not e.outcome.Solver.stats.Solver.certified then acc
        else
          match acc with
          | None -> Some e
          | Some b ->
            if
              Tol.lt e.outcome.Solver.stats.Solver.objective
                b.outcome.Solver.stats.Solver.objective
            then Some e
            else acc)
      None entries
  in
  { winner; entries; wall_time = Unix.gettimeofday () -. t0 }

let degradations_of report =
  match report.winner with
  | None -> []
  | Some e -> List.map snd e.outcome.Solver.stats.Solver.degradations
