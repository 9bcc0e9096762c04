(* Tests for the benchmark's own arithmetic: span self time, the
   percentile rule, and replay fidelity on a small instance. *)

open Perfbench

let close = Alcotest.float 1e-9

(* A clock that returns the given instants in order. *)
let scripted instants =
  let q = ref instants in
  fun () ->
    match !q with
    | t :: rest ->
      q := rest;
      t
    | [] -> Alcotest.fail "clock read more often than scripted"

let test_self_time_nested () =
  (* parent [0,10] > a [1,4] > grandchild [2,3]; parent > b [5,9] *)
  let tr = Trace.create ~clock:(scripted [ 0.; 1.; 2.; 3.; 4.; 5.; 9.; 10. ]) () in
  Trace.with_span tr "parent" (fun () ->
      Trace.with_span tr "a" (fun () -> Trace.with_span tr "grandchild" ignore);
      Trace.with_span tr "b" ignore);
  let spans = Trace.spans tr in
  let find n = List.find (fun s -> s.Trace.name = n) spans in
  let self n =
    let s = find n in
    Trace.self_time s
      (List.map (fun c -> (c.Trace.start, c.Trace.stop)) (Trace.children spans s))
  in
  Alcotest.check close "parent" 3. (self "parent");
  Alcotest.check close "a" 2. (self "a");
  Alcotest.check close "grandchild" 1. (self "grandchild");
  Alcotest.check close "b" 4. (self "b");
  Alcotest.(check (option int)) "parent of grandchild" (Some (find "a").Trace.id)
    (find "grandchild").Trace.parent

let test_covered_overlap_and_clip () =
  Alcotest.check close "overlapping children count once" 5.
    (Trace.covered ~lo:0. ~hi:10. [ (1., 4.); (3., 6.) ]);
  Alcotest.check close "children clipped to the parent" 3.
    (Trace.covered ~lo:0. ~hi:10. [ (-5., 1.); (8., 12.) ]);
  Alcotest.check close "disjoint" 0. (Trace.covered ~lo:0. ~hi:1. [ (2., 3.) ])

let test_percentile_rule () =
  let r n = Stats.reportable ~n in
  Alcotest.(check (option int)) "19 samples: none" None (r 19);
  Alcotest.(check (option int)) "20 samples: p50" (Some 500) (r 20);
  Alcotest.(check (option int)) "99 samples: p50" (Some 500) (r 99);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (r 100);
  Alcotest.(check (option int)) "999 samples: p90" (Some 900) (r 999);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (r 1000);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 999) (r 10000);
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.beyond ~n:100 ~per_mille:900)

let test_percentile_values () =
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.check close "p50 nearest rank" 5. (Stats.percentile ~per_mille:500 xs);
  Alcotest.check close "p90 nearest rank" 9. (Stats.percentile ~per_mille:900 xs);
  Alcotest.check close "p99.9 is the maximum" 10. (Stats.percentile ~per_mille:999 xs);
  Alcotest.check close "median, even count" 5.5 (Stats.median xs);
  Alcotest.check close "median, odd count" 2. (Stats.median [ 3.; 1.; 2. ])

(* A K=8 generated instance, planned traced. *)
let traced_k8 w =
  let nl =
    Workload.relabel ~seed:3
      (Fp_netlist.Generator.generate
         { Fp_netlist.Generator.default_config with
           Fp_netlist.Generator.num_modules = 8; total_area = 349. *. 8.; seed = 8 })
  in
  let tr = Trace.create () in
  (tr, Workload.plan ~trace:tr w nl)

(* Replayed step by step, every count must equal the committed step's. *)
let replay_matches (w : Workload.t) () =
  let tr, p = traced_k8 w in
  Alcotest.(check (list string)) "plan passes its checks" [] p.Workload.problems;
  Alcotest.(check int) "every step captured"
    (List.length p.Workload.result.Fp_core.Augment.steps)
    (List.length p.Workload.captures);
  let steps =
    Fp_util.Pool.with_pool ~jobs:2 (fun pool ->
        Replay.run ~trace:tr ~pool w p.Workload.captures)
  in
  List.iter
    (fun (s : Replay.step) ->
      Alcotest.(check (list string))
        (Printf.sprintf "step %d replays exactly" s.Replay.index)
        [] s.Replay.mismatches)
    steps;
  let retried =
    List.exists (fun (s : Replay.step) -> List.length s.Replay.attempts > 1) steps
  in
  Alcotest.(check bool) "some step was retried" true retried

(* A step whose recorded count is off by one must be reported. *)
let replay_detects_mismatch (w : Workload.t) () =
  let _, p = traced_k8 w in
  let tamper (c : Workload.capture) =
    { c with Workload.stat = { c.Workload.stat with Fp_core.Augment.nodes = c.Workload.stat.Fp_core.Augment.nodes + 1 } }
  in
  let steps =
    Fp_util.Pool.with_pool ~jobs:2 (fun pool ->
        Replay.run ~pool w (List.map tamper p.Workload.captures))
  in
  List.iter
    (fun (s : Replay.step) ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d reported" s.Replay.index)
        true (s.Replay.mismatches <> []))
    steps

(* Budgets small enough that some steps retry. *)
let small base = { base with Workload.nodes = 40 }

let () =
  let k15 = Option.get (Workload.find "k15_basic") in
  let ami = Option.get (Workload.find "ami33_check") in
  Alcotest.run "perfbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "self time with nested children" `Quick
            test_self_time_nested;
          Alcotest.test_case "covered intervals overlap and clip" `Quick
            test_covered_overlap_and_clip;
          Alcotest.test_case "percentile needs ten samples beyond" `Quick
            test_percentile_rule;
          Alcotest.test_case "percentile values" `Quick test_percentile_values ] );
      ( "replay",
        [ Alcotest.test_case "K=8 basic replay matches" `Quick
            (replay_matches (small k15));
          Alcotest.test_case "K=8 tight checked replay matches" `Quick
            (replay_matches (small ami));
          Alcotest.test_case "a tampered step is reported" `Quick
            (replay_detects_mismatch (small k15)) ] ) ]
