(* Tests for Fp_check: the model linter (ML/FL diagnostic codes), the
   independent solution certifier (CT codes), and the end-to-end property
   that the full floorplanning pipeline produces certifiable placements
   while hand-mutated counterexamples are rejected. *)

module Rect = Fp_geometry.Rect
module Skyline = Fp_geometry.Skyline
module Covering = Fp_geometry.Covering
module Model = Fp_milp.Model
module Expr = Fp_milp.Expr
module Module_def = Fp_netlist.Module_def
module Netlist = Fp_netlist.Netlist
module Generator = Fp_netlist.Generator
module BB = Fp_milp.Branch_bound
module Diag = Fp_check.Diagnostic
module Lint = Fp_check.Lint
module Certify = Fp_check.Certify
open Fp_core

let rect x y w h = Rect.make ~x ~y ~w ~h

let codes ds = List.sort_uniq String.compare (List.map (fun d -> d.Diag.code) ds)
let error_codes ds = codes (Diag.errors ds)

let has_code c ds = List.exists (fun d -> d.Diag.code = c) ds

let has_error c ds =
  List.exists (fun d -> d.Diag.code = c && Diag.is_error d) ds

let check_has msg c ds = Alcotest.(check bool) msg true (has_code c ds)

let check_error msg c ds =
  Alcotest.(check bool) msg true (has_error c ds)

(* --------------------------- diagnostics ----------------------------- *)

let test_diag_to_line () =
  let d =
    Diag.make ~code:"XX001" ~severity:Diag.Warning ~subject:"a|b"
      "line1\nline2"
  in
  Alcotest.(check string) "scrubbed" "XX001|warning|a/b|line1 line2"
    (Diag.to_line d)

let test_diag_order_and_counts () =
  let mk code severity = Diag.make ~code ~severity ~subject:"s" "m" in
  let ds =
    [ mk "B" Diag.Info; mk "A" Diag.Warning; mk "C" Diag.Error ]
  in
  let sorted = List.stable_sort Diag.compare ds in
  Alcotest.(check (list string)) "errors first" [ "C"; "A"; "B" ]
    (List.map (fun d -> d.Diag.code) sorted);
  Alcotest.(check bool) "counts" true (Diag.count ds = (1, 1, 1));
  Alcotest.(check bool) "accepts iff no error" false
    (Certify.accepts ds);
  Alcotest.(check bool) "accepts warnings" true
    (Certify.accepts [ mk "A" Diag.Warning ])

(* ---------------------------- model lint ----------------------------- *)

let no_refine = { Lint.default_context with Lint.refine_lp = false }

let test_lint_clean_model () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:10. "x" in
  let y = Model.add_continuous m ~ub:10. "y" in
  Model.add_constr m Expr.(var x + var y) Model.Le (Expr.const 8.);
  Model.set_objective m `Minimize Expr.(var x + var y);
  Alcotest.(check (list string)) "no findings" [] (codes (Lint.model m))

let test_lint_unused_var () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:1. "x" in
  let _dead = Model.add_continuous m ~ub:1. "dead" in
  Model.add_constr m (Expr.var x) Model.Le (Expr.const 1.);
  check_has "ML002" "ML002" (Lint.model m)

let test_lint_unbounded_objective_var () =
  let m = Model.create () in
  let x = Model.add_continuous m ~lb:neg_infinity ~ub:10. "x" in
  Model.add_constr m (Expr.var x) Model.Le (Expr.const 5.);
  Model.set_objective m `Minimize (Expr.var x);
  (* minimizing +x with lb = -inf: improving direction is unbounded *)
  check_has "ML003" "ML003" (Lint.model m)

let test_lint_infeasible_and_vacuous_rows () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:1. "x" in
  Model.add_constr m (Expr.var x) Model.Ge (Expr.const 5.);   (* infeasible *)
  Model.add_constr m (Expr.var x) Model.Le (Expr.const 10.);  (* vacuous *)
  let ds = Lint.model m in
  check_error "ML004 is an error" "ML004" ds;
  check_has "ML005" "ML005" ds

let test_lint_duplicate_rows () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:4. "x" in
  let y = Model.add_continuous m ~ub:4. "y" in
  Model.add_constr m Expr.(var x + var y) Model.Le (Expr.const 3.);
  (* scaled copy: same halfspace *)
  Model.add_constr m Expr.(2. * (var x + var y)) Model.Le (Expr.const 6.);
  check_has "ML006" "ML006" (Lint.model m)

let test_lint_dynamic_range () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:1. "x" in
  let y = Model.add_continuous m ~ub:1. "y" in
  Model.add_constr m Expr.((1e9 * var x) + var y) Model.Le (Expr.const 1e9);
  check_has "ML007" "ML007" (Lint.model m)

(* Big-M disjunction: x <= 5 unless the switch b1 is up.  With
   x in [0, 10] the constant must be >= 5; writing 2 instead clips the
   feasible region. *)
let bigm_model ~m_const =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:10. "x" in
  let b1 = Model.add_binary m "b1" in
  let b2 = Model.add_binary m "b2" in
  Model.declare_pair m b1 b2;
  Model.add_constr m
    Expr.(var x - (m_const * var b1))
    Model.Le (Expr.const 5.);
  Model.add_constr m Expr.(var b1 + var b2) Model.Le (Expr.const 1.);
  Model.set_objective m `Minimize (Expr.var x);
  m

let test_lint_bigm_too_small () =
  let ds = Lint.model (bigm_model ~m_const:2.) in
  check_error "ML008 is an error" "ML008" ds

let test_lint_bigm_too_small_interval_fallback () =
  let ds = Lint.model ~context:no_refine (bigm_model ~m_const:2.) in
  check_error "ML008 without LP refinement" "ML008" ds

let test_lint_bigm_adequate () =
  let ds = Lint.model (bigm_model ~m_const:5.) in
  Alcotest.(check (list string)) "no ML008/ML009" []
    (List.filter (fun c -> c = "ML008" || c = "ML009") (codes ds))

let test_lint_bigm_loose () =
  let ds = Lint.model (bigm_model ~m_const:1e5) in
  check_has "ML009" "ML009" ds;
  Alcotest.(check bool) "ML009 is a warning, not an error" false
    (has_error "ML009" ds)

(* The LP refinement must clear big-Ms that interval arithmetic cannot:
   here x's bound interval is [0, 100] but another row caps x + w at 10,
   so the big-M of 10 is in fact sufficient. *)
let test_lint_bigm_correlated_not_flagged () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:100. "x" in
  let w = Model.add_continuous m ~lb:2. ~ub:4. "w" in
  let b1 = Model.add_binary m "b1" in
  let b2 = Model.add_binary m "b2" in
  Model.declare_pair m b1 b2;
  Model.add_constr m Expr.(var x + var w) Model.Le (Expr.const 10.);
  Model.add_constr m
    Expr.(var x - (10. * var b1))
    Model.Le (Expr.const 0.);
  Model.set_objective m `Minimize (Expr.var x);
  let ds = Lint.model m in
  Alcotest.(check bool) "no spurious ML008" false (has_error "ML008" ds)

let test_lint_unpaired_binary () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:1. "x" in
  let b = Model.add_binary m "lonely" in
  Model.add_constr m Expr.(var x + var b) Model.Le (Expr.const 1.);
  check_has "ML010" "ML010" (Lint.model m)

(* ------------------------- formulation lint -------------------------- *)

let rigid id name w h = Module_def.rigid ~id ~name ~w ~h

let small_built ?(fixed = []) () =
  Formulation.build ~chip_width:10. ~height_bound:30. ~fixed
    [ Formulation.plain_item (rigid 0 "a" 3. 4.);
      Formulation.plain_item (rigid 1 "b" 2. 2.);
      Formulation.plain_item (rigid 2 "c" 4. 3.) ]

let test_formulation_lint_clean () =
  let b = small_built ~fixed:[ rect 0. 0. 10. 2. ] () in
  Alcotest.(check (list string)) "no errors" [] (error_codes (Lint.formulation b))

let test_formulation_missing_item_sep () =
  let b = small_built () in
  let seps =
    List.filter
      (fun (i, other, _) ->
        not (i = 0 && other = Formulation.Other_item 1))
      b.Formulation.seps
  in
  let broken = { b with Formulation.seps } in
  check_error "FL001" "FL001" (Lint.formulation broken);
  Alcotest.check_raises "self_check raises"
    (Failure "Formulation.self_check: no separation between items 0 and 1")
    (fun () -> Formulation.self_check broken)

let test_formulation_missing_fixed_sep () =
  let b = small_built ~fixed:[ rect 0. 0. 10. 2. ] () in
  let seps =
    List.filter
      (fun (_, other, _) -> other <> Formulation.Other_fixed 0)
      b.Formulation.seps
  in
  check_error "FL002" "FL002"
    (Lint.formulation { b with Formulation.seps })

let test_formulation_fixed_outside_strip () =
  let b = small_built ~fixed:[ rect 0. 0. 10. 2. ] () in
  let broken = { b with Formulation.fixed = [ rect (-3.) 0. 10. 2. ] } in
  check_error "FL003" "FL003" (Lint.formulation broken)

let test_build_check_flag_runs_self_check () =
  (* ~check:true on an intact build must be silent. *)
  ignore
    (Formulation.build ~chip_width:10. ~height_bound:30. ~check:true
       [ Formulation.plain_item (rigid 0 "a" 3. 4.);
         Formulation.plain_item (rigid 1 "b" 2. 2.) ])

(* All ami33 flow subproblem models lint without a single error-severity
   finding (the acceptance bar for the linter's false-positive rate).
   The node budget is tiny: lint inspects the models, not the solves. *)
let test_ami33_models_lint_clean () =
  let nl = Fp_data.Ami33.netlist () in
  let errors = ref [] in
  let inspect =
    { Augment.on_model =
        (fun built ->
          errors := Diag.errors (Lint.formulation built) @ !errors);
      on_step = (fun _ _ -> ()) }
  in
  let d = Augment.default_config in
  let config =
    { d with
      Augment.check = true;
      inspect = Some inspect;
      milp = { d.Augment.milp with BB.node_limit = 40; time_limit = 3. } }
  in
  ignore (Augment.run ~config nl);
  Alcotest.(check (list string)) "no error findings on ami33" []
    (List.map Diag.to_line !errors)

(* Golden findings: [Lint.formulation] on every committed step model
   of a small [tight] plan (K=10, generator seed 7, 200 nodes per step),
   each step's [Diagnostic.to_line] output sorted.  The big-M analysis
   sends 50 interval-suspicious rows of these models to the exact LP
   refinement, so a change in what the LP probes conclude shows up as a
   changed, added or missing line. *)
let tight_plan_lint_lines =
  [
      [
        "ML005|info|row c0|vacuous: satisfied by every point within the variable bounds (lhs range [0, 29.7596] vs rhs 29.7596)";
        "ML010|info|model|5 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_m07, z_m08, s_i0_i1, s_i1_i2, ...";
      ];
      [
        "ML010|info|model|2 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_m03, z_m00";
      ];
      [
        "ML005|info|row c0|vacuous: satisfied by every point within the variable bounds (lhs range [35, 45.7596] vs rhs 45.7596)";
        "ML005|info|row c10|vacuous: satisfied by every point within the variable bounds (lhs range [30.9427, 36] vs rhs 36)";
        "ML005|info|row c11|vacuous: satisfied by every point within the variable bounds (lhs range [-59.8245, -54.7672] vs rhs -54.7672)";
        "ML005|info|row c12|vacuous: satisfied by every point within the variable bounds (lhs range [-34.7596, -24] vs rhs -24)";
        "ML005|info|row c13|vacuous: satisfied by every point within the variable bounds (lhs range [43.7672, 43.8245] vs rhs 43.8245)";
        "ML005|info|row c2|vacuous: satisfied by every point within the variable bounds (lhs range [0, 43.7596] vs rhs 43.7596)";
        "ML005|info|row c8|vacuous: satisfied by every point within the variable bounds (lhs range [19.9427, 20] vs rhs 20)";
        "ML005|info|row c9|vacuous: satisfied by every point within the variable bounds (lhs range [-54.8245, -54.7672] vs rhs -54.7672)";
      ];
  ]

let test_tight_plan_lint_golden () =
  let nl =
    Generator.generate
      { Generator.default_config with
        Generator.num_modules = 10; total_area = 349. *. 10.; seed = 7 }
  in
  let steps = ref [] in
  let inspect =
    { Augment.on_model =
        (fun built ->
          let lines = List.map Diag.to_line (Lint.formulation built) in
          steps := List.sort String.compare lines :: !steps);
      on_step = (fun _ _ -> ()) }
  in
  let d = Augment.default_config in
  let config =
    { d with
      Augment.formulation = Formulation.Tight;
      inspect = Some inspect;
      milp = { d.Augment.milp with BB.node_limit = 200; time_limit = 1e9 } }
  in
  ignore (Augment.run ~config nl);
  Alcotest.(check (list (list string))) "sorted findings per step"
    tight_plan_lint_lines (List.rev !steps)

(* Golden findings on the nine committed step models of the bundled
   ami33 under the benchmark's [ami33_check] configuration ([tight], 200
   nodes per step, retry ladder, build self-check), each step sorted.
   Its 352 big-M probes mostly stop at the verdict; a probe that stopped
   or failed wrongly would add an ML008 line here. *)
let ami33_check_lint_lines =
  [
    [
      "ML005|info|row c0|vacuous: satisfied by every point within the variable bounds (lhs range [0, 80.7983] vs rhs 80.7983)";
      "ML005|info|row c1|vacuous: satisfied by every point within the variable bounds (lhs range [-13.2665, -13.2665] vs rhs -13.2665)";
      "ML005|info|row c2|vacuous: satisfied by every point within the variable bounds (lhs range [-13.2665, -12] vs rhs -12)";
      "ML005|info|row c3|vacuous: satisfied by every point within the variable bounds (lhs range [0, 93.3313] vs rhs 93.3313)";
      "ML005|info|row c4|vacuous: satisfied by every point within the variable bounds (lhs range [-13.2665, -10] vs rhs -10)";
      "ML010|info|model|7 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk22, s_i0_i1, s_i0_i2, s_i0_i3, ...";
    ];
    [
      "ML010|info|model|12 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk21, s_i0_i1, s_i0_i3, s_i1_i3, ...";
    ];
    [
      "ML005|info|row c0|vacuous: satisfied by every point within the variable bounds (lhs range [-6.73207, 74.8481] vs rhs 87.3313)";
      "ML005|info|row c2|vacuous: satisfied by every point within the variable bounds (lhs range [-2, 76.116] vs rhs 93.3313)";
      "ML005|info|row c4|vacuous: satisfied by every point within the variable bounds (lhs range [-2, 78.116] vs rhs 95.3313)";
      "ML010|info|model|4 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk18, z_bk20, s_i1_f1, s_i1_f4";
    ];
    [
      "ML005|info|row c40|vacuous: satisfied by every point within the variable bounds (lhs range [-92.3313, -17.2665] vs rhs -17.2665)";
      "ML005|info|row c42|vacuous: satisfied by every point within the variable bounds (lhs range [-93.3313, -17.2665] vs rhs -17.2665)";
      "ML010|info|model|13 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk14, z_bk15, z_bk16, z_bk17, ...";
    ];
    [
      "ML010|info|model|12 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk04, z_bk08, z_bk09, z_bk13, ...";
    ];
    [
      "ML005|info|row c0|vacuous: satisfied by every point within the variable bounds (lhs range [0, 4.116] vs rhs 75.3313)";
      "ML005|info|row c1|vacuous: satisfied by every point within the variable bounds (lhs range [-28, -28] vs rhs -28)";
      "ML005|info|row c32|vacuous: satisfied by every point within the variable bounds (lhs range [-19.116, -15] vs rhs -15)";
      "ML005|info|row c33|vacuous: satisfied by every point within the variable bounds (lhs range [-48, -48] vs rhs -38)";
      "ML005|info|row c49|vacuous: satisfied by every point within the variable bounds (lhs range [-39.3825, -35.2665] vs rhs -35.2665)";
      "ML005|info|row c50|vacuous: satisfied by every point within the variable bounds (lhs range [-48, -48] vs rhs -48)";
      "ML005|info|row c64|vacuous: satisfied by every point within the variable bounds (lhs range [0, 4.116] vs rhs 4.116)";
      "ML005|info|row c65|vacuous: satisfied by every point within the variable bounds (lhs range [-4.116, 0] vs rhs -0)";
      "ML005|info|row c78|vacuous: satisfied by every point within the variable bounds (lhs range [0, 4.116] vs rhs 4.116)";
      "ML005|info|row c95|vacuous: satisfied by every point within the variable bounds (lhs range [0, 4.116] vs rhs 47.3313)";
      "ML006|warning|row c50|parallel to row c33 (same left-hand side, different rhs: the looser row is redundant)";
      "ML006|warning|row c64|parallel to row c0 (same left-hand side, different rhs: the looser row is redundant)";
      "ML006|warning|row c78|parallel to row c0 (same left-hand side, different rhs: the looser row is redundant)";
      "ML006|warning|row c95|parallel to row c0 (same left-hand side, different rhs: the looser row is redundant)";
      "ML010|info|model|3 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk06, z_bk10, z_bk11";
    ];
    [
      "ML005|info|row c33|vacuous: satisfied by every point within the variable bounds (lhs range [-74, -70] vs rhs -70)";
      "ML005|info|row c35|vacuous: satisfied by every point within the variable bounds (lhs range [-76, -70] vs rhs -70)";
      "ML005|info|row c37|vacuous: satisfied by every point within the variable bounds (lhs range [-78, -70] vs rhs -70)";
      "ML005|info|row c39|vacuous: satisfied by every point within the variable bounds (lhs range [-90.5132, -70] vs rhs -70)";
      "ML005|info|row c60|vacuous: satisfied by every point within the variable bounds (lhs range [-81.3313, -32] vs rhs -32)";
      "ML010|info|model|3 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk02, z_bk03, z_bk05";
    ];
    [
      "ML005|info|row c32|vacuous: satisfied by every point within the variable bounds (lhs range [-77.3313, -26] vs rhs -26)";
      "ML010|info|model|3 binaries are not covered by any declare_pair (2-way instead of 4-way branching): z_bk00, z_bk07, z_bk12";
    ];
    [
      "ML005|info|row c0|vacuous: satisfied by every point within the variable bounds (lhs range [-11.3137, 50.6863] vs rhs 84.7038)";
      "ML005|info|row c3|vacuous: satisfied by every point within the variable bounds (lhs range [-116.418, -98] vs rhs -98)";
      "ML010|info|model|1 binary is not covered by any declare_pair (2-way instead of 4-way branching): s_i0_f4";
    ];
  ]

let test_ami33_check_lint_golden () =
  let nl = Fp_data.Ami33.netlist () in
  let steps = ref [] in
  let inspect =
    { Augment.on_model =
        (fun built ->
          let lines = List.map Diag.to_line (Lint.formulation built) in
          steps := List.sort String.compare lines :: !steps);
      on_step = (fun _ _ -> ()) }
  in
  let d = Augment.default_config in
  let config =
    { d with
      Augment.formulation = Formulation.Tight;
      check = true;
      inspect = Some inspect;
      milp = { d.Augment.milp with BB.node_limit = 200; time_limit = 1e9 } }
  in
  ignore (Augment.run ~config nl);
  Alcotest.(check (list (list string))) "sorted findings per step"
    ami33_check_lint_lines (List.rev !steps)

(* ----------------------------- certifier ----------------------------- *)

let placed ?(rotated = false) id r =
  { Placement.module_id = id; rect = r; envelope = r; rotated }

let two_rigid_nl =
  Netlist.create ~name:"two"
    [ rigid 0 "a" 3. 4.; rigid 1 "b" 2. 2. ]
    []

let good_two_placement () =
  Placement.empty ~chip_width:10.
  |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 4.))
  |> Fun.flip Placement.add (placed 1 (rect 3. 0. 2. 2.))

let test_certify_accepts_good () =
  let ds = Certify.placement two_rigid_nl (good_two_placement ()) in
  Alcotest.(check (list string)) "clean" [] (codes ds)

let test_certify_rejects_overlap () =
  (* counterexample 1: module b nudged onto module a *)
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 4.))
    |> Fun.flip Placement.add (placed 1 (rect 2. 0. 2. 2.))
  in
  let ds = Certify.placement two_rigid_nl pl in
  check_error "CT001" "CT001" ds;
  Alcotest.(check bool) "rejected" false (Certify.accepts ds)

let test_certify_rejects_out_of_bounds () =
  (* counterexample 2: module pushed past the right chip edge *)
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 4.))
    |> Fun.flip Placement.add (placed 1 (rect 9. 0. 2. 2.))
  in
  check_error "CT002" "CT002" (Certify.placement two_rigid_nl pl)

let test_certify_silicon_outside_envelope () =
  let p =
    { Placement.module_id = 0; rect = rect 2. 0. 3. 4.;
      envelope = rect 0. 0. 3. 4.; rotated = false }
  in
  let pl = Placement.add (Placement.empty ~chip_width:10.) p in
  check_error "CT003" "CT003" (Certify.placement two_rigid_nl pl)

let test_certify_rotation_inconsistency () =
  (* placed 4x3 while the definition says 3x4 and rotated = false *)
  let pl =
    Placement.add
      (Placement.empty ~chip_width:10.)
      (placed 0 (rect 0. 0. 4. 3.))
  in
  check_error "CT004" "CT004" (Certify.placement two_rigid_nl pl);
  (* with rotated = true the same rectangle is consistent *)
  let pl_rot =
    Placement.add
      (Placement.empty ~chip_width:10.)
      (placed ~rotated:true 0 (rect 0. 0. 4. 3.))
  in
  Alcotest.(check bool) "rotated ok" false
    (has_code "CT004" (Certify.placement two_rigid_nl pl_rot))

let flex_nl =
  Netlist.create ~name:"flex"
    [ Module_def.flexible ~id:0 ~name:"f" ~area:12. ~min_aspect:0.5
        ~max_aspect:2. ]
    []

let test_certify_flexible_area_and_aspect () =
  (* 4 x 3 = 12 with aspect 4/3: fine *)
  let ok =
    Placement.add (Placement.empty ~chip_width:10.)
      (placed 0 (rect 0. 0. 4. 3.))
  in
  Alcotest.(check (list string)) "good flexible" []
    (codes (Certify.placement flex_nl ok));
  (* area broken: 4 x 4 = 16 *)
  let bad_area =
    Placement.add (Placement.empty ~chip_width:10.)
      (placed 0 (rect 0. 0. 4. 4.))
  in
  check_error "CT005" "CT005" (Certify.placement flex_nl bad_area);
  (* area kept but aspect outside [0.5, 2]: 6 x 2, aspect 3 *)
  let bad_aspect =
    Placement.add (Placement.empty ~chip_width:10.)
      (placed 0 (rect 0. 0. 6. 2.))
  in
  check_error "CT006" "CT006" (Certify.placement flex_nl bad_aspect)

let test_certify_height_and_objective () =
  let pl = good_two_placement () in
  let lying = { pl with Placement.height = 7. } in
  let ds = Certify.placement two_rigid_nl lying in
  check_error "CT011" "CT011" ds;
  let ds =
    Certify.placement
      ~reported:{ Certify.objective = `Height; value = 5.5 }
      two_rigid_nl (good_two_placement ())
  in
  check_error "CT010" "CT010" ds;
  let ds =
    Certify.placement
      ~reported:{ Certify.objective = `Height; value = 4. }
      two_rigid_nl (good_two_placement ())
  in
  Alcotest.(check bool) "correct objective accepted" true (Certify.accepts ds)

let test_certify_unknown_module () =
  let pl =
    Placement.add (Placement.empty ~chip_width:10.)
      (placed 7 (rect 0. 0. 1. 1.))
  in
  check_error "CT012" "CT012" (Certify.placement two_rigid_nl pl)

(* ------------------------- covering certifier ------------------------ *)

let sample_skyline () =
  Skyline.of_rects ~width:10.
    [ rect 0. 0. 4. 3.; rect 4. 0. 3. 5.; rect 7. 0. 3. 2. ]

let test_covering_accepts_exact_decomposition () =
  let sky = sample_skyline () in
  let cover = Covering.of_skyline sky in
  Alcotest.(check (list string)) "clean" []
    (codes (Certify.covering ~skyline:sky ~num_placed:3 cover))

let test_covering_rejects_too_many () =
  let sky = sample_skyline () in
  let cover = Covering.of_skyline sky in
  check_error "CT007" "CT007"
    (Certify.covering ~skyline:sky ~num_placed:1 cover)

let test_covering_rejects_broken_flat_bottom () =
  (* counterexample 3: lift one covering rectangle off the chip floor —
     the cover now has a hole under it (flat-bottom property broken) *)
  let sky = sample_skyline () in
  let cover = Covering.of_skyline sky in
  let lifted =
    match cover with
    | r :: rest -> { r with Rect.y = r.Rect.y +. 1. } :: rest
    | [] -> assert false
  in
  let ds = Certify.covering ~skyline:sky ~num_placed:3 lifted in
  Alcotest.(check bool) "rejected" false (Certify.accepts ds);
  Alcotest.(check bool) "hole or protrusion detected" true
    (has_error "CT008" ds || has_error "CT009" ds)

let test_covering_rejects_protruding_rect () =
  let sky = sample_skyline () in
  let cover = Covering.of_skyline sky in
  let grown =
    match cover with
    | r :: rest -> { r with Rect.h = r.Rect.h +. 2. } :: rest
    | [] -> assert false
  in
  check_error "CT008" "CT008"
    (Certify.covering ~skyline:sky ~num_placed:3 grown)

(* ------------------------ end-to-end property ------------------------ *)

(* Random instance -> full plan pipeline -> the certifier accepts every
   partial and the final placement; nudging any module into its neighbour
   makes it reject. *)
let test_random_pipeline_certifies () =
  let rng = Fp_util.Rng.create 2026 in
  List.iter
    (fun seed ->
      let nl =
        Generator.generate
          { Generator.default_config with
            Generator.num_modules = 8;
            seed }
      in
      let findings = ref [] in
      let inspect =
        { Augment.on_model = (fun _ -> ());
          on_step =
            (fun _ pl ->
              findings := Certify.placement nl pl @ !findings;
              let sky =
                Skyline.of_rects ~width:pl.Placement.chip_width
                  (Placement.envelopes pl)
              in
              findings :=
                Certify.covering ~skyline:sky
                  ~num_placed:(Placement.num_placed pl)
                  (Covering.of_skyline sky)
                @ !findings) }
      in
      let d = Augment.default_config in
      let config =
        { d with
          Augment.check = true;
          inspect = Some inspect;
          milp = { d.Augment.milp with BB.node_limit = 80; time_limit = 3. } }
      in
      let res = Augment.run ~config nl in
      let pl = Compact.vertical res.Augment.placement in
      let pl, _ = Topology.optimize nl pl in
      findings := Certify.placement nl pl @ !findings;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d certifies" seed)
        []
        (List.map Diag.to_line (Diag.errors !findings));
      (* Mutate: slide a random module onto the one placed after it. *)
      let arr = Array.of_list pl.Placement.placed in
      if Array.length arr >= 2 then begin
        let i = Fp_util.Rng.int rng (Array.length arr - 1) in
        let victim = arr.(i) and target = arr.(i + 1) in
        let moved =
          { victim with
            Placement.rect =
              { victim.Placement.rect with
                Rect.x = target.Placement.rect.Rect.x;
                y = target.Placement.rect.Rect.y };
            envelope =
              { victim.Placement.envelope with
                Rect.x = target.Placement.envelope.Rect.x;
                y = target.Placement.envelope.Rect.y } }
        in
        arr.(i) <- moved;
        let mutated = { pl with Placement.placed = Array.to_list arr } in
        let ds = Certify.placement nl mutated in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d mutation rejected" seed)
          false (Certify.accepts ds)
      end)
    [ 11; 42; 77 ]

(* ------------------------------ suite -------------------------------- *)

let () =
  Alcotest.run "fp_check"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "to_line scrubs" `Quick test_diag_to_line;
          Alcotest.test_case "order and counts" `Quick
            test_diag_order_and_counts;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean model" `Quick test_lint_clean_model;
          Alcotest.test_case "unused var" `Quick test_lint_unused_var;
          Alcotest.test_case "unbounded objective var" `Quick
            test_lint_unbounded_objective_var;
          Alcotest.test_case "infeasible + vacuous rows" `Quick
            test_lint_infeasible_and_vacuous_rows;
          Alcotest.test_case "duplicate rows" `Quick test_lint_duplicate_rows;
          Alcotest.test_case "dynamic range" `Quick test_lint_dynamic_range;
          Alcotest.test_case "big-M too small" `Quick test_lint_bigm_too_small;
          Alcotest.test_case "big-M too small (interval)" `Quick
            test_lint_bigm_too_small_interval_fallback;
          Alcotest.test_case "big-M adequate" `Quick test_lint_bigm_adequate;
          Alcotest.test_case "big-M loose" `Quick test_lint_bigm_loose;
          Alcotest.test_case "big-M correlated (LP refine)" `Quick
            test_lint_bigm_correlated_not_flagged;
          Alcotest.test_case "unpaired binary" `Quick test_lint_unpaired_binary;
        ] );
      ( "formulation",
        [
          Alcotest.test_case "clean" `Quick test_formulation_lint_clean;
          Alcotest.test_case "missing item sep" `Quick
            test_formulation_missing_item_sep;
          Alcotest.test_case "missing fixed sep" `Quick
            test_formulation_missing_fixed_sep;
          Alcotest.test_case "fixed outside strip" `Quick
            test_formulation_fixed_outside_strip;
          Alcotest.test_case "tight plan findings (golden)" `Quick
            test_tight_plan_lint_golden;
          Alcotest.test_case "check flag" `Quick
            test_build_check_flag_runs_self_check;
          Alcotest.test_case "ami33 models lint clean" `Slow
            test_ami33_models_lint_clean;
          Alcotest.test_case "ami33_check findings (golden)" `Slow
            test_ami33_check_lint_golden;
        ] );
      ( "certify",
        [
          Alcotest.test_case "accepts good" `Quick test_certify_accepts_good;
          Alcotest.test_case "rejects overlap" `Quick
            test_certify_rejects_overlap;
          Alcotest.test_case "rejects out of bounds" `Quick
            test_certify_rejects_out_of_bounds;
          Alcotest.test_case "silicon outside envelope" `Quick
            test_certify_silicon_outside_envelope;
          Alcotest.test_case "rotation inconsistency" `Quick
            test_certify_rotation_inconsistency;
          Alcotest.test_case "flexible area + aspect" `Quick
            test_certify_flexible_area_and_aspect;
          Alcotest.test_case "height + objective" `Quick
            test_certify_height_and_objective;
          Alcotest.test_case "unknown module" `Quick
            test_certify_unknown_module;
        ] );
      ( "covering",
        [
          Alcotest.test_case "accepts decomposition" `Quick
            test_covering_accepts_exact_decomposition;
          Alcotest.test_case "rejects too many" `Quick
            test_covering_rejects_too_many;
          Alcotest.test_case "rejects broken flat bottom" `Quick
            test_covering_rejects_broken_flat_bottom;
          Alcotest.test_case "rejects protruding rect" `Quick
            test_covering_rejects_protruding_rect;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "random pipeline certifies" `Slow
            test_random_pipeline_certifies;
        ] );
    ]
