(* The floorplanner's benchmark driver.

     driver.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                [--instance-seed N] [--trace-file PATH]

   One caller plans one instance at a time in a closed loop.  With
   --trace 0 it keeps starting plans for --seconds (at least two) and
   prints the end-to-end metrics; with --trace 1 it plans once untraced
   and once traced, replays every committed step (see Replay) and prints
   the per-layer metrics.  The last line of standard output is always
   one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  The exit code is 1
   when any plan failed its checks. *)

open Fp_core
open Perfbench
module BB = Fp_milp.Branch_bound
module Netlist = Fp_netlist.Netlist

let printf = Printf.printf

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  traced : bool;
  instance_seed : int option;
  trace_file : string option;
}

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let instance_seed = ref None and trace_file = ref None in
  let names = String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  one of " ^ names);
      ("--seed", Arg.Set_int seed, "N  seed for the instance's labels (default 1)");
      ("--seconds", Arg.Set_int seconds, "S  how long to keep planning (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1: traced run with per-layer metrics");
      ( "--instance-seed",
        Arg.Int (fun n -> instance_seed := Some n),
        "N  generate another instance of the workload's class" );
      ( "--trace-file",
        Arg.String (fun p -> trace_file := Some p),
        "PATH  where the traced run writes its Chrome trace" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --workload NAME [options]";
  match Workload.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "; known: " ^ names);
    exit 2
  | Some w ->
    if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
    { workload = w; seed = !seed; seconds = float_of_int !seconds;
      traced = !trace = 1; instance_seed = !instance_seed; trace_file = !trace_file }

(* ------------------------------- set-up ------------------------------ *)

(* Everything before the first plan call: build the instance and check
   it.  Set-up takes well under a millisecond, so one batch of repeats
   runs before the first plan and another after every plan, and the
   median over all of them is reported. *)
let setup_batch = 20

let setup a =
  let t0 = Unix.gettimeofday () in
  let nl =
    Workload.relabel ~seed:a.seed
      (Workload.base_instance ?instance_seed:a.instance_seed a.workload)
  in
  (match Netlist.validate nl with Ok () -> () | Error e -> failwith e);
  (nl, Unix.gettimeofday () -. t0)

let setup_times = ref []

let time_setup a =
  let runs = List.init setup_batch (fun _ -> setup a) in
  setup_times := List.map snd runs @ !setup_times;
  fst (List.hd runs)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
            (fun kb -> kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* ------------------------------- output ------------------------------ *)

let metric unit v = Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]

let result_line ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map (fun (k, u, v) -> (k, metric u v)) metrics)) ]))

let describe a nl =
  let w = a.workload in
  printf "workload   : %s (seed %d, instance %s, %d modules, %d nets)\n"
    w.Workload.name a.seed (Netlist.name nl) (Netlist.num_modules nl)
    (Netlist.num_nets nl);
  printf "config     : %s formulation, %d nodes/step, jobs=%d%s\n"
    (Formulation.mode_to_string w.Workload.formulation) w.Workload.nodes
    w.Workload.jobs (if w.Workload.checking then ", lint+certify hooks" else "")

let report_problems label (p : Workload.plan) =
  List.iter (fun m -> printf "  FAILED %s: %s\n" label m) p.Workload.problems

(* ------------------------------ untraced ----------------------------- *)

(* Plans start until --seconds have passed, and at least this many run,
   so each run reports a median of several. *)
let min_plans = 2

let untraced a nl =
  let w = a.workload in
  let start = Unix.gettimeofday () in
  let plans = ref [] and failed = ref 0 and attempted = ref 0 in
  let fail label msg =
    incr failed;
    printf "  FAILED %s: %s\n" label msg
  in
  while !attempted < min_plans || Unix.gettimeofday () -. start < a.seconds do
    incr attempted;
    let label = Printf.sprintf "plan %d" !attempted in
    let outcome = try Ok (Workload.plan w nl) with e -> Error e in
    ignore (time_setup a);
    match outcome with
    | Ok p ->
      if p.Workload.problems <> [] then begin
        incr failed;
        report_problems label p
      end
      else plans := p :: !plans
    | Error e -> fail label (Printexc.to_string e)
  done;
  let plans = List.rev !plans in
  (* Every plan must be the jobs=1 plan: the first one of a sequential
     workload, a freshly computed one for a parallel workload. *)
  let reference =
    match plans with
    | [] -> None
    | p :: _ when w.Workload.jobs = 1 -> Some (Workload.digest p)
    | _ -> (
      match Workload.plan ~jobs:1 w nl with
      | r when r.Workload.problems = [] -> Some (Workload.digest r)
      | r ->
        report_problems "jobs=1 reference" r;
        None
      | exception e ->
        printf "  FAILED jobs=1 reference: %s\n" (Printexc.to_string e);
        None)
  in
  let good =
    List.filteri
      (fun i p ->
        let ok = Some (Workload.digest p) = reference in
        if not ok then
          fail (Printf.sprintf "plan %d" (i + 1)) "plan differs from the jobs=1 plan";
        ok)
      plans
  in
  let rss = peak_rss_mb () in
  describe a nl;
  printf "set-up     : %s\n" (Stats.summary ~unit:"s" !setup_times);
  printf "plans      : %d attempted, %d failed, %.1f s measured\n" !attempted
    !failed (Unix.gettimeofday () -. start);
  let metrics =
    match good with
    | [] -> []
    | p :: _ ->
      let times = List.map (fun p -> p.Workload.seconds) good in
      printf "plan time  : %s\n" (Stats.summary ~unit:"s" times);
      printf "plan times : %s\n"
        (String.concat " " (List.map (Printf.sprintf "%.3f") times));
      printf "quality    : utilization %.4f, hpwl %.1f, routed area %.1f, %d degraded steps\n"
        (Workload.utilization nl p) (Workload.hpwl nl p)
        p.Workload.adjust.Fp_route.Adjust.final_area (Workload.degraded_steps p);
      printf "peak RSS   : %.1f MB\n" rss;
      [ ("plan_s", "s", Stats.median times);
        ("setup_s", "s", Stats.median !setup_times);
        ("peak_rss_mb", "MB", rss);
        ("utilization", "ratio", Workload.utilization nl p);
        ("hpwl", "length", Workload.hpwl nl p);
        ("routed_area", "area", p.Workload.adjust.Fp_route.Adjust.final_area);
        ("degraded_steps", "count", float_of_int (Workload.degraded_steps p)) ]
  in
  let correct = !failed = 0 && metrics <> [] in
  result_line ~correct ~attempted:!attempted ~failed:!failed metrics;
  correct

(* ------------------------------- traced ------------------------------ *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs
let maxi f xs = List.fold_left (fun a x -> Int.max a (f x)) 0 xs

(* Augment's self time: its span minus the step and hook spans it
   covers, plus, per step, the step span minus the replayed layer calls
   it made (covering, warm start, build and search per attempt), laid
   end to end from the step's start. *)
let augment_self w spans run_span (steps : Replay.step list) =
  let kids = Trace.children spans run_span in
  let iv (s : Trace.span) = (s.Trace.start, s.Trace.stop) in
  let outer = Trace.self_time run_span (List.map iv kids) in
  let step_spans = List.filter (fun s -> s.Trace.name = "augment.step") kids in
  outer
  +. sum
       (fun (st : Replay.step) ->
         match List.find_opt (fun s -> s.Trace.step = Some st.Replay.index) step_spans with
         | None -> 0.
         | Some s ->
           let durations =
             List.concat_map
               (fun (at : Replay.attempt) ->
                 [ at.Replay.covering_s; at.Replay.warm_s; at.Replay.build_s;
                   (Replay.used w at).Replay.seconds ])
               st.Replay.attempts
           in
           let _, laid =
             List.fold_left
               (fun (t, acc) d -> (t +. d, (t, t +. d) :: acc))
               (s.Trace.start, []) durations
           in
           Trace.self_time s laid)
       steps

let layer_metrics w ~spans ~plan_span ~(plan : Workload.plan)
    ~(steps : Replay.step list) ~gc_minor ~gc_major ~alloc_words ~overhead =
  let live =
    List.filter
      (fun s -> s.Trace.start >= plan_span.Trace.start && s.Trace.stop <= plan_span.Trace.stop)
      spans
  in
  let live_sum name = sum Trace.duration (List.filter (fun s -> s.Trace.name = name) live) in
  let stats = List.map (fun (s : Replay.step) -> s.Replay.capture.Workload.stat) steps in
  let attempts = List.concat_map (fun (s : Replay.step) -> s.Replay.attempts) steps in
  (* Attempts searched both ways, for the parallel comparison. *)
  let paired =
    List.filter_map
      (fun (a : Replay.attempt) -> Option.map (fun p -> (a.Replay.seq, p)) a.Replay.par)
      attempts
  in
  let nodes = sumi (fun s -> s.Augment.nodes) stats in
  let pivots = sumi (fun s -> s.Augment.pivots) stats in
  let seq_nodes = sumi (fun a -> a.Replay.seq.Replay.outcome.BB.nodes) attempts in
  let seq_s = sum (fun a -> a.Replay.seq.Replay.seconds) attempts in
  let domains =
    List.fold_left
      (fun acc (_, (p : Replay.solve)) ->
        let pd = p.Replay.outcome.BB.per_domain in
        List.init
          (Int.max (List.length acc) (Array.length pd))
          (fun i ->
            (match List.nth_opt acc i with Some x -> x | None -> 0)
            + if i < Array.length pd then pd.(i).BB.d_nodes else 0))
      [] paired
  in
  let par_nodes = List.fold_left ( + ) 0 domains in
  let run_span = List.find (fun s -> s.Trace.name = "augment.run") live in
  let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b in
  let fi = float_of_int in
  [ ("augment.steps", "count", fi (List.length steps));
    ("augment.retries", "count", fi (sumi (fun s -> s.Augment.retries) stats));
    ( "augment.step_max_s", "s",
      List.fold_left
        (fun a s -> if s.Trace.name = "augment.step" then Float.max a (Trace.duration s) else a)
        0. live );
    ("augment.self_s", "s", augment_self w live run_span steps);
    ("formulation.build_s", "s", sum (fun a -> a.Replay.build_s) attempts);
    ("formulation.rows", "count", fi (maxi (fun s -> s.Augment.num_constraints) stats));
    ("formulation.int_vars", "count", fi (maxi (fun s -> s.Augment.num_integer_vars) stats));
    ("warm_start.place_group_s", "s", sum (fun a -> a.Replay.warm_s) attempts);
    ( "warm_start.gap", "length",
      sum (fun s -> s.Augment.warm_height -. s.Augment.step_height) stats );
    ("covering.of_skyline_s", "s", sum (fun a -> a.Replay.covering_s) attempts);
    ("covering.rects", "count", fi (sumi (fun s -> s.Augment.num_cover_rects) stats));
    ("branch_bound.solve_s", "s", sum (fun a -> (Replay.used w a).Replay.seconds) attempts);
    ("branch_bound.nodes", "count", fi nodes);
    ("branch_bound.us_per_node", "us", seq_s /. fi seq_nodes *. 1e6);
    ( "branch_bound.alloc_kb_per_node", "kB",
      sum (fun a -> a.Replay.seq.Replay.alloc_bytes) attempts /. fi seq_nodes /. 1e3 );
    ( "branch_bound.optimal_steps", "count",
      fi (List.length (List.filter (fun s -> s.Augment.milp_status = BB.Optimal) stats)) );
    ("revised.pivots", "count", fi pivots);
    ("revised.pivots_per_node", "ratio", ratio pivots nodes);
    ( "revised.warm_hit_ratio", "ratio",
      ratio (sumi (fun s -> s.Augment.warm_hits) stats) (sumi (fun s -> s.Augment.lp_solves) stats) );
    ("revised.cold_solves", "count", fi (sumi (fun s -> s.Augment.cold_solves) stats));
    ("revised.refactorizations", "count", fi (sumi (fun s -> s.Augment.refactorizations) stats));
    ("revised.root_solve_s", "s", sum (fun (s : Replay.step) -> s.Replay.root_solve_s) steps);
    ( "parallel.speedup", "ratio",
      sum (fun (s, _) -> s.Replay.seconds) paired /. sum (fun (_, p) -> p.Replay.seconds) paired );
    ( "parallel.useful_node_ratio", "ratio",
      ratio (sumi (fun (s, _) -> s.Replay.outcome.BB.nodes) paired) par_nodes );
    ( "parallel.frontier_tasks", "count",
      fi (sumi (fun (_, p) -> p.Replay.outcome.BB.frontier_tasks) paired) );
    ("parallel.waves", "count", fi (sumi (fun (_, p) -> p.Replay.outcome.BB.waves) paired));
    ( "parallel.domain_imbalance", "ratio",
      fi (List.fold_left Int.max 0 domains) /. (fi par_nodes /. fi (List.length domains)) );
    ( "lint.formulation_s", "s",
      if w.Workload.checking then live_sum "lint.formulation"
      else sum (fun (s : Replay.step) -> s.Replay.lint_s) steps );
    ("topology.optimize_s", "s", live_sum "topology.optimize");
    ("compact.vertical_s", "s", live_sum "compact.vertical");
    ("certify.placement_s", "s", live_sum "certify.placement");
    ("global_router.route_s", "s", live_sum "global_router.route");
    ("adjust.compute_s", "s", live_sum "adjust.compute");
    ("route.overflow", "tracks", plan.Workload.routing.Fp_route.Global_router.overflow_total);
    ("gc.minor_collections", "count", fi gc_minor);
    ("gc.major_collections", "count", fi gc_major);
    ("gc.alloc_mwords", "Mwords", alloc_words /. 1e6);
    ("trace.overhead_s", "s", overhead) ]

let print_steps (steps : Replay.step list) =
  printf "\n%4s %5s %5s %5s %6s %7s %8s %9s %9s %9s  %s\n" "step" "rows" "ints"
    "cover" "retry" "nodes" "pivots" "step s" "bb j1 s" "bb pool s" "replay";
  List.iter
    (fun (s : Replay.step) ->
      let st = s.Replay.capture.Workload.stat in
      let bb f = sum (fun a -> match f a with Some (b : Replay.solve) -> b.Replay.seconds | None -> 0.) s.Replay.attempts in
      let measured = s.Replay.mismatches = [] in
      let t v = if measured then Printf.sprintf "%9.3f" v else "unmeasured" in
      printf "%4d %5d %5d %5d %6d %7d %8d %9.3f %s %s  %s\n" s.Replay.index
        st.Augment.num_constraints st.Augment.num_integer_vars
        st.Augment.num_cover_rects st.Augment.retries st.Augment.nodes
        st.Augment.pivots st.Augment.step_time
        (t (bb (fun a -> Some a.Replay.seq)))
        (t (bb (fun a -> a.Replay.par)))
        (if measured then "counts match" else String.concat "; " s.Replay.mismatches))
    steps;
  printf "(bb j1 s: every attempt at jobs=1; bb pool s: the attempts also searched \
          on the pool, the committed one or, on a parallel workload, all)\n"

(* The K=15 baseline the ROADMAP recorded from temporary timers. *)
let print_baseline metrics =
  let get k = List.fold_left (fun acc (n, _, v) -> if n = k then v else acc) nan metrics in
  let nodes = get "branch_bound.nodes" in
  let words = get "gc.alloc_mwords" in
  printf "\nK=15 baseline   %12s %12s\n" "this run" "ROADMAP";
  printf "  nodes         %12.0f %12s\n" nodes "23,980";
  printf "  pivots        %12.0f %12s\n" (get "revised.pivots") "51,266";
  printf "  alloc Mwords  %12.1f %12s\n" words "~590";
  printf "  kB per node   %12.1f %12s\n" (words *. 1e6 *. 8. /. nodes /. 1e3) "~196"

let traced a nl =
  let w = a.workload in
  describe a nl;
  let gc0 = Gc.quick_stat () in
  let plain = Workload.plan w nl in
  let gc1 = Gc.quick_stat () in
  ignore (time_setup a);
  let tr = Trace.create () in
  let traced_plan = Trace.with_span tr "plan" (fun () -> Workload.plan ~trace:tr w nl) in
  ignore (time_setup a);
  printf "set-up     : %s\n" (Stats.summary ~unit:"s" !setup_times);
  let steps =
    Fp_util.Pool.with_pool ~jobs:2 (fun pool ->
        Trace.with_span tr "replay" (fun () ->
            Replay.run ~trace:tr ~pool w traced_plan.Workload.captures))
  in
  let spans = Trace.spans tr in
  let plan_span = List.find (fun s -> s.Trace.name = "plan") spans in
  (* Tracing must not change the plan. *)
  let plan_failed label (p : Workload.plan) ~extra =
    report_problems label p;
    List.iter (fun m -> printf "  FAILED %s: %s\n" label m) extra;
    p.Workload.problems <> [] || extra <> []
  in
  let failed =
    List.length
      (List.filter Fun.id
         [ plan_failed "untraced plan" plain ~extra:[];
           plan_failed "traced plan" traced_plan
             ~extra:
               (if Workload.digest plain = Workload.digest traced_plan then []
                else [ "differs from the untraced plan" ]) ])
  in
  let alloc_words =
    gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
    -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words)
  in
  let overhead = traced_plan.Workload.seconds -. plain.Workload.seconds in
  let metrics =
    layer_metrics w ~spans ~plan_span ~plan:plain ~steps
      ~gc_minor:(gc1.Gc.minor_collections - gc0.Gc.minor_collections)
      ~gc_major:(gc1.Gc.major_collections - gc0.Gc.major_collections)
      ~alloc_words ~overhead
  in
  printf "plan time  : untraced %.3f s, traced %.3f s, tracing overhead %.3f s\n"
    plain.Workload.seconds traced_plan.Workload.seconds overhead;
  print_steps steps;
  let mismatched = List.filter (fun (s : Replay.step) -> s.Replay.mismatches <> []) steps in
  printf "replay     : %d of %d steps reproduced their counts\n"
    (List.length steps - List.length mismatched) (List.length steps);
  if w.Workload.family = `Table1_k15 && w.Workload.jobs = 1 && a.instance_seed = None then
    print_baseline metrics;
  printf "\n";
  List.iter (fun (k, u, v) -> printf "  %-32s %14.6g %s\n" k v u) metrics;
  let path =
    match a.trace_file with
    | Some p -> p
    | None ->
      let dir = Filename.concat "perfbench" "out" in
      (* Relative to the checkout root, where run.sh starts the driver. *)
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" w.Workload.name a.seed)
  in
  Trace.write_chrome path spans;
  printf "trace      : %s (%d spans)\n" path (List.length spans);
  let correct = failed = 0 && mismatched = [] in
  result_line ~correct ~attempted:2 ~failed metrics;
  correct

let () =
  let a = parse () in
  let nl = time_setup a in
  let ok =
    try if a.traced then traced a nl else untraced a nl
    with e ->
      printf "  FAILED: %s\n" (Printexc.to_string e);
      result_line ~correct:false ~attempted:1 ~failed:1 [];
      false
  in
  exit (if ok then 0 else 1)
