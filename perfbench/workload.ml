open Fp_core
module BB = Fp_milp.Branch_bound
module Netlist = Fp_netlist.Netlist
module Generator = Fp_netlist.Generator
module Diag = Fp_check.Diagnostic
module Router = Fp_route.Global_router

type t = {
  name : string;
  formulation : Formulation.mode;
  nodes : int;
  jobs : int;
  checking : bool;
  family : [ `Table1_k15 | `Ami33 ];
  default_instance_seed : int;
}

(* Table-1 K=15: many cheap nodes, so the LP kernel's cost per node
   dominates. *)
let k15_basic =
  {
    name = "k15_basic";
    formulation = Formulation.Basic;
    nodes = 4000;
    jobs = 1;
    checking = false;
    family = `Table1_k15;
    default_instance_seed = 1015;
  }

let all =
  [
    k15_basic;
    (* The same plan on two domains: the only workload on a pool. *)
    { k15_basic with name = "k15_basic_j2"; jobs = 2 };
    (* Larger LPs, the dense Simplex callers and the retry ladder. *)
    {
      name = "ami33_check";
      formulation = Formulation.Tight;
      nodes = 200;
      jobs = 1;
      checking = true;
      family = `Ami33;
      default_instance_seed = 0;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
(* Per-step MILP time limit, far beyond any run. *)
let unreachable_time_limit = 1e9

let base_instance ?instance_seed w =
  let seed = Option.value instance_seed ~default:w.default_instance_seed in
  match (w.family, seed = w.default_instance_seed) with
  | `Table1_k15, true -> Fp_data.Instances.table1_instance 15
  | `Ami33, true -> Fp_data.Ami33.netlist ()
  | `Table1_k15, false ->
    Generator.generate
      { Generator.default_config with
        Generator.num_modules = 15; total_area = 349. *. 15.; seed }
  | `Ami33, false ->
    (* An ami33-class instance: its size, area, flexible share and net
       density. *)
    Generator.generate
      { Generator.default_config with
        Generator.num_modules = Fp_data.Ami33.num_modules;
        total_area = Fp_data.Ami33.total_module_area;
        flexible_fraction = 8. /. 33.;
        nets_per_module =
          float_of_int Fp_data.Ami33.num_nets
          /. float_of_int Fp_data.Ami33.num_modules;
        seed }

let relabel ~seed nl =
  let tag = Printf.sprintf "s%d_" seed in
  let mods =
    Array.to_list
      (Array.map
         (fun (m : Fp_netlist.Module_def.t) -> { m with name = tag ^ m.name })
         (Netlist.modules nl))
  in
  let nets =
    List.map
      (fun (n : Fp_netlist.Net.t) -> { n with name = tag ^ n.name })
      (Netlist.nets nl)
  in
  Netlist.create ~name:(tag ^ Netlist.name nl) mods nets

let config ?inspect ?jobs w =
  let d = Augment.default_config in
  {
    d with
    Augment.formulation = w.formulation;
    jobs = Option.value jobs ~default:w.jobs;
    check = w.checking;
    inspect;
    milp =
      { d.Augment.milp with
        BB.node_limit = w.nodes; time_limit = unreachable_time_limit };
  }

type capture = {
  built : Formulation.built;
  stat : Augment.step_stat;
  before : Placement.t;
}

type plan = {
  result : Augment.result;
  final : Placement.t;
  routing : Router.t;
  adjust : Fp_route.Adjust.report;
  seconds : float;
  problems : string list;
  captures : capture list;
}

let pitch = 0.35

let errors what ds =
  List.filter_map
    (fun d ->
      if Diag.is_error d then Some (what ^ ": " ^ Diag.to_line d) else None)
    ds

let certify_covering pl =
  let sky =
    Fp_geometry.Skyline.of_rects ~width:pl.Placement.chip_width
      (Placement.envelopes pl)
  in
  Fp_check.Certify.covering ~skyline:sky ~num_placed:(Placement.num_placed pl)
    (Fp_geometry.Covering.of_skyline sky)

let plan ?trace ?jobs w nl =
  let span ?step name f =
    match trace with None -> f () | Some t -> Trace.with_span t ?step name f
  in
  let clock () =
    match trace with Some t -> Trace.now t | None -> Unix.gettimeofday ()
  in
  let problems = ref [] in
  let problem p = problems := p :: !problems in
  let captures = ref [] in
  (* Hook state: the step being committed, its model, and the end of
     the previous step's hooks, where the next step span starts. *)
  let step = ref 0 in
  let model = ref None in
  let before = ref None in
  let boundary = ref 0. in
  let on_model built =
    incr step;
    (match trace with
    | Some t ->
      Trace.record t ~step:!step "augment.step" ~start:!boundary
        ~stop:(Trace.now t)
    | None -> ());
    model := Some built;
    if w.checking then
      List.iter problem
        (errors
           (Printf.sprintf "step %d lint" !step)
           (span ~step:!step "lint.formulation" (fun () ->
                Fp_check.Lint.formulation built)))
  in
  let on_step stat pl =
    if w.checking then begin
      List.iter problem
        (errors
           (Printf.sprintf "step %d placement" !step)
           (span ~step:!step "certify.placement" (fun () ->
                Fp_check.Certify.placement nl pl)));
      List.iter problem
        (errors
           (Printf.sprintf "step %d covering" !step)
           (span ~step:!step "certify.covering" (fun () ->
                certify_covering pl)))
    end;
    (match (trace, !model) with
    | Some _, Some built ->
      let start =
        Option.value !before
          ~default:(Placement.empty ~chip_width:built.Formulation.chip_width)
      in
      captures := { built; stat; before = start } :: !captures
    | _ -> ());
    before := Some pl;
    boundary := clock ()
  in
  let inspect =
    if w.checking || trace <> None then Some { Augment.on_model; on_step }
    else None
  in
  let config = config ?inspect ?jobs w in
  let t0 = clock () in
  boundary := t0;
  let result = span "augment.run" (fun () -> Augment.run ~config nl) in
  let final = span "compact.vertical" (fun () -> Compact.vertical result.Augment.placement) in
  let final, _ =
    span "topology.optimize" (fun () ->
        Topology.optimize ~linearization:config.Augment.linearization nl final)
  in
  List.iter problem
    (errors "final placement"
       (span "certify.placement" (fun () -> Fp_check.Certify.placement nl final)));
  List.iter problem
    (errors "final covering"
       (span "certify.covering" (fun () -> certify_covering final)));
  let routing =
    span "global_router.route" (fun () ->
        Router.route ~algorithm:(Router.Weighted { penalty = 3. })
          ~pitch_h:pitch ~pitch_v:pitch nl final)
  in
  let adjust =
    span "adjust.compute" (fun () ->
        Fp_route.Adjust.compute routing ~pitch_h:pitch ~pitch_v:pitch)
  in
  let seconds = clock () -. t0 in
  if result.Augment.interrupted then problem "run interrupted";
  if Placement.num_placed final <> Netlist.num_modules nl then
    problem "not every module placed";
  (match Placement.valid final with
  | Ok () -> ()
  | Error e -> problem ("final placement invalid: " ^ e));
  if routing.Router.num_failed > 0 then
    problem (Printf.sprintf "%d nets unroutable" routing.Router.num_failed);
  List.iteri
    (fun i (s : Augment.step_stat) ->
      if
        s.Augment.time_budget < unreachable_time_limit
        || s.Augment.step_time >= s.Augment.time_budget
      then problem (Printf.sprintf "step %d ran against its wall-clock limit" (i + 1)))
    result.Augment.steps;
  List.iter
    (fun (k, d) ->
      match d with
      | Degradation.Hook_failed msg ->
        problem (Printf.sprintf "step %d hook failed: %s" k msg)
      | _ -> ())
    result.Augment.degradations;
  {
    result;
    final;
    routing;
    adjust;
    seconds;
    problems = List.rev !problems;
    captures = List.rev !captures;
  }

let degraded_steps p =
  List.length
    (List.filter
       (fun (s : Augment.step_stat) -> s.Augment.degradations <> [])
       p.result.Augment.steps)

let utilization nl p = Metrics.utilization nl p.final
let hpwl nl p = Metrics.hpwl nl p.final

let digest p =
  let b = Buffer.create 4096 in
  let rect (r : Fp_geometry.Rect.t) =
    Printf.bprintf b "%h,%h,%h,%h;" r.Fp_geometry.Rect.x r.Fp_geometry.Rect.y
      r.Fp_geometry.Rect.w r.Fp_geometry.Rect.h
  in
  let placement (pl : Placement.t) =
    Printf.bprintf b "W%h H%h|" pl.Placement.chip_width pl.Placement.height;
    List.iter
      (fun (m : Placement.placed) ->
        Printf.bprintf b "%d:%b:" m.Placement.module_id m.Placement.rotated;
        rect m.Placement.rect;
        rect m.Placement.envelope)
      pl.Placement.placed
  in
  placement p.result.Augment.placement;
  placement p.final;
  Digest.to_hex (Digest.string (Buffer.contents b))
