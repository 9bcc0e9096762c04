module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Placement = Fp_core.Placement
module Metrics = Fp_core.Metrics
module Outline = Fp_core.Outline
module Degradation = Fp_core.Degradation

type scenario = {
  seed : int;
  outline : Outline.t;
  wire_weight : float option;
  time_budget : float option;
  checkpoint : string option;
}

let default_scenario =
  {
    seed = 1990;
    outline = Outline.Free;
    wire_weight = None;
    time_budget = None;
    checkpoint = None;
  }

type context = {
  rng : Fp_util.Rng.t;
  deadline : float option;
}

let of_scenario scenario =
  {
    rng = Fp_util.Rng.create scenario.seed;
    deadline =
      Option.map (fun b -> Unix.gettimeofday () +. b) scenario.time_budget;
  }

type stats = {
  engine : string;
  wall_time : float;
  work : int;
  objective : float;
  certified : bool;
  complete : bool;
  degradations : (int * Degradation.t) list;
  detail : (string * float) list;
}

type outcome = { plan : Placement.t option; stats : stats }

type t = {
  name : string;
  solve : context -> scenario -> Fp_netlist.Netlist.t -> outcome;
}

let deadline_left ctx =
  Option.map (fun dl -> Float.max 0. (dl -. Unix.gettimeofday ())) ctx.deadline

(* Content bounding box of a plan — what the outline constrains.  The
   strip ([chip_width]) can be wider than the placed content; the
   outline cares about the content. *)
let content_dims pl =
  match Rect.bounding_box (Placement.envelopes pl) with
  | None -> (0., 0.)
  | Some b -> (Rect.x_max b, Rect.y_max b)

let objective_of scenario nl pl =
  let w, h = content_dims pl in
  let base =
    match Outline.width_limit scenario.outline with
    | Some _ -> h
    | None -> w *. h
  in
  let wire =
    match scenario.wire_weight with
    | Some lambda when not (Tol.is_zero lambda) ->
      lambda *. Metrics.hpwl nl pl
    | Some _ | None -> 0.
  in
  base +. wire

let finalize ~engine ~scenario ~t0 ~work ~complete ~degradations ~detail nl
    plan =
  let wall_time = Unix.gettimeofday () -. t0 in
  match plan with
  | None ->
    {
      plan = None;
      stats =
        {
          engine; wall_time; work; objective = infinity; certified = false;
          complete = false; degradations; detail;
        };
    }
  | Some pl ->
    let all_placed = Placement.num_placed pl = Fp_netlist.Netlist.num_modules nl in
    let certified = Fp_check.Certify.accepts (Fp_check.Certify.placement nl pl) in
    let cw, ch = content_dims pl in
    let excess = Outline.excess scenario.outline ~w:cw ~h:ch in
    let degradations, fits =
      if Tol.gt excess 0. then
        (degradations @ [ (0, Degradation.Outline_exceeded excess) ], false)
      else (degradations, true)
    in
    {
      plan = Some pl;
      stats =
        {
          engine;
          wall_time;
          work;
          objective = objective_of scenario nl pl;
          certified = certified && fits && all_placed;
          complete = complete && all_placed;
          degradations;
          detail;
        };
    }
