module Anneal = Fp_slicing.Anneal
module Degradation = Fp_core.Degradation

let make ?(config = Anneal.default_config) () =
  let solve (ctx : Solver.context) (sc : Solver.scenario) nl =
    let t0 = Unix.gettimeofday () in
    let cfg =
      { config with
        Anneal.seed = sc.Solver.seed;
        outline = sc.Solver.outline;
        wire_weight = Option.value sc.Solver.wire_weight ~default:config.Anneal.wire_weight;
        time_limit =
          (match (Solver.deadline_left ctx, config.Anneal.time_limit) with
          | None, l -> l
          | (Some _ as left), None -> left
          | Some left, Some l -> Some (Float.min left l)) }
    in
    let pl, stats = Anneal.run ~config:cfg nl in
    let degradations =
      if stats.Anneal.truncated then [ (0, Degradation.Deadline_truncated) ]
      else []
    in
    Solver.finalize ~engine:"sa" ~scenario:sc ~t0
      ~work:stats.Anneal.iterations
      ~complete:(not stats.Anneal.truncated) ~degradations
      ~detail:
        [
          ("iterations", float_of_int stats.Anneal.iterations);
          ("accepted", float_of_int stats.Anneal.accepted);
          ("best_cost", stats.Anneal.best_cost);
          ("initial_cost", stats.Anneal.initial_cost);
        ]
      nl (Some pl)
  in
  { Solver.name = "sa"; solve }
