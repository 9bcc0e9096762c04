(* Tests for Fp_lp: the model builder, the two-phase bounded-variable
   simplex, and the LP-format writer.  Includes a brute-force 2-D vertex
   enumeration cross-check of optimality. *)

module Lp = Fp_lp.Lp_problem
module Simplex = Fp_lp.Simplex
module Lp_io = Fp_lp.Lp_io

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let solve_opt p =
  match Simplex.solve p with
  | Simplex.Optimal { x; obj } -> (x, obj)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected iteration limit"

(* ------------------------- model builder --------------------------- *)

let test_builder_basics () =
  let p = Lp.create ~name:"m" () in
  let x = Lp.add_var p ~lb:1. ~ub:5. ~obj:2. "x" in
  let y = Lp.add_var p "y" in
  Lp.add_constr p [ (1., x); (2., y) ] Lp.Le 10.;
  Alcotest.(check int) "vars" 2 (Lp.num_vars p);
  Alcotest.(check int) "constrs" 1 (Lp.num_constrs p);
  Alcotest.(check string) "name" "x" (Lp.var_name p x);
  checkf "lb" 1. (Lp.var_lb p x);
  checkf "ub" 5. (Lp.var_ub p x);
  checkf "obj" 2. (Lp.obj_coeff p x)

let test_builder_duplicate_terms () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x); (2., x) ] Lp.Eq 6.;
  Lp.set_obj_coeff p x 1.;
  let sol, obj = solve_opt p in
  checkf "merged coefficients" 2. sol.(x);
  checkf "objective" 2. obj

let test_builder_bad_var () =
  let p = Lp.create () in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Lp_problem.add_constr: unknown variable 3") (fun () ->
      Lp.add_constr p [ (1., 3) ] Lp.Le 1.)

let test_builder_bad_bounds () =
  let p = Lp.create () in
  Alcotest.check_raises "ub < lb"
    (Invalid_argument "Lp_problem.add_var x: ub (0) < lb (1)") (fun () ->
      ignore (Lp.add_var p ~lb:1. ~ub:0. "x"))

let test_tighten_bounds () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:1. ~ub:5. "x" in
  Alcotest.(check bool) "tightens" true
    (Lp.tighten_bounds p x ~lb:2. ~ub:7.);
  checkf "lb" 2. (Lp.var_lb p x);
  checkf "ub" 5. (Lp.var_ub p x);
  Alcotest.(check bool) "empty refused" false
    (Lp.tighten_bounds p x ~lb:6. ~ub:8.);
  checkf "lb untouched" 2. (Lp.var_lb p x);
  checkf "ub untouched" 5. (Lp.var_ub p x)

let test_violation () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:2. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 1.;
  checkf "feasible point" 0. (Lp.constraint_violation p [| 1.5 |]);
  checkf "bound violated" 1. (Lp.constraint_violation p [| 3. |]);
  checkf "row violated" 0.5 (Lp.constraint_violation p [| 0.5 |])

(* --------------------------- known LPs ------------------------------ *)

let test_textbook_max () =
  (* max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18. Optimum (2, 6) -> 36. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:3. "x" in
  let y = Lp.add_var p ~obj:5. "y" in
  Lp.set_sense p Lp.Maximize;
  Lp.add_constr p [ (1., x) ] Lp.Le 4.;
  Lp.add_constr p [ (2., y) ] Lp.Le 12.;
  Lp.add_constr p [ (3., x); (2., y) ] Lp.Le 18.;
  let sol, obj = solve_opt p in
  checkf "obj" 36. obj;
  checkf "x" 2. sol.(x);
  checkf "y" 6. sol.(y)

let test_degenerate_lp () =
  (* Degenerate vertex: several constraints meet at the optimum. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:(-1.) "x" in
  let y = Lp.add_var p ~obj:(-1.) "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.;
  Lp.add_constr p [ (1., x) ] Lp.Le 1.;
  Lp.add_constr p [ (1., y) ] Lp.Le 1.;
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.;
  let _, obj = solve_opt p in
  checkf "obj" (-1.) obj

let test_equality_system () =
  (* x + y = 3; x - y = -1 -> (1, 2). *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  let y = Lp.add_var p ~obj:1. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Eq 3.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Eq (-1.);
  let sol, _ = solve_opt p in
  checkf "x" 1. sol.(x);
  checkf "y" 2. sol.(y)

let test_free_variable () =
  (* min x st x >= -7, via free variable and a Ge row. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge (-7.);
  let sol, obj = solve_opt p in
  checkf "x" (-7.) sol.(x);
  checkf "obj" (-7.) obj

let test_upper_bounded_only () =
  (* max x with x <= 3 as a pure bound, lb = -inf. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~ub:3. ~obj:1. "x" in
  Lp.set_sense p Lp.Maximize;
  let sol, obj = solve_opt p in
  checkf "x" 3. sol.(x);
  checkf "obj" 3. obj

let test_bound_flips () =
  (* Optimum rests on upper bounds; exercises the bound-flip path. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:1. ~obj:(-1.) "x" in
  let y = Lp.add_var p ~ub:1. ~obj:(-2.) "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.5;
  let sol, obj = solve_opt p in
  checkf "obj" (-2.5) obj;
  checkf "x" 0.5 sol.(x);
  checkf "y" 1. sol.(y)

let test_fixed_variable () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:2. ~ub:2. ~obj:1. "x" in
  let y = Lp.add_var p ~ub:4. ~obj:1. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Ge 5.;
  let sol, obj = solve_opt p in
  checkf "x fixed" 2. sol.(x);
  checkf "obj" 5. obj

let test_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 5.;
  Lp.add_constr p [ (1., x) ] Lp.Le 3.;
  Alcotest.(check bool) "infeasible" true (Simplex.solve p = Simplex.Infeasible)

let test_infeasible_equalities () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  let y = Lp.add_var p "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Eq 1.;
  Lp.add_constr p [ (2., x); (2., y) ] Lp.Eq 3.;
  Alcotest.(check bool) "inconsistent" true (Simplex.solve p = Simplex.Infeasible)

let test_unbounded () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  let y = Lp.add_var p ~obj:(-1.) "y" in
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 0.;
  Alcotest.(check bool) "unbounded" true (Simplex.solve p = Simplex.Unbounded)

let test_empty_objective () =
  (* Pure feasibility problem. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 2.;
  let sol, obj = solve_opt p in
  checkf "obj 0" 0. obj;
  Alcotest.(check bool) "feasible" true (sol.(x) >= 2. -. 1e-6)

let test_redundant_rows () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  for _ = 1 to 5 do
    Lp.add_constr p [ (1., x) ] Lp.Ge 1.
  done;
  Lp.add_constr p [ (2., x) ] Lp.Ge 2.;
  let _, obj = solve_opt p in
  checkf "obj" 1. obj

let test_stats_populated () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 3.;
  let _, stats = Simplex.solve_with_stats p in
  Alcotest.(check bool) "rows > 0" true (stats.Simplex.rows > 0);
  Alcotest.(check bool) "cols > 0" true (stats.Simplex.cols > 0)

(* ----------------- brute-force 2-D cross-check --------------------- *)

(* Enumerate candidate vertices of a 2-D LP: intersections of all pairs
   of constraint boundaries (including box bounds), filter feasible, and
   take the best objective.  Exact for non-degenerate bounded problems. *)
let brute_force_2d ~c1 ~c2 ~rows ~ub1 ~ub2 =
  (* Lines: a x + b y = r, from rows and the four bounds. *)
  let lines =
    rows
    @ [ (1., 0., 0.); (0., 1., 0.); (1., 0., ub1); (0., 1., ub2) ]
  in
  let feasible (x, y) =
    x >= -1e-7 && y >= -1e-7 && x <= ub1 +. 1e-7 && y <= ub2 +. 1e-7
    && List.for_all (fun (a, b, r) -> (a *. x) +. (b *. y) <= r +. 1e-7) rows
  in
  let best = ref infinity in
  List.iteri
    (fun i (a1, b1, r1) ->
      List.iteri
        (fun j (a2, b2, r2) ->
          if j > i then begin
            let det = (a1 *. b2) -. (a2 *. b1) in
            if Float.abs det > 1e-9 then begin
              let x = ((r1 *. b2) -. (r2 *. b1)) /. det in
              let y = ((a1 *. r2) -. (a2 *. r1)) /. det in
              if feasible (x, y) then begin
                let v = (c1 *. x) +. (c2 *. y) in
                if v < !best then best := v
              end
            end
          end)
        lines)
    lines;
  !best

let random_2d_lp_arb =
  (* Coefficients in small integers; constraints of the form
     a x + b y <= r with a, b >= 0 and r > 0, so (0,0) is feasible and the
     box keeps everything bounded. *)
  QCheck.make
    ~print:(fun (c1, c2, rows) ->
      Printf.sprintf "c=(%g,%g) rows=[%s]" c1 c2
        (String.concat "; "
           (List.map (fun (a, b, r) -> Printf.sprintf "%gx+%gy<=%g" a b r) rows)))
    QCheck.Gen.(
      triple
        (map (fun n -> float_of_int (n - 5)) (int_bound 10))
        (map (fun n -> float_of_int (n - 5)) (int_bound 10))
        (list_size (int_range 1 5)
           (map
              (fun (a, b, r) ->
                (float_of_int a, float_of_int b, float_of_int (r + 1)))
              (triple (int_bound 4) (int_bound 4) (int_bound 20)))))

let test_simplex_matches_brute_force =
  QCheck.Test.make ~name:"simplex = 2-D vertex enumeration" ~count:500
    random_2d_lp_arb (fun (c1, c2, rows) ->
      let ub1 = 25. and ub2 = 25. in
      let p = Lp.create () in
      let x = Lp.add_var p ~ub:ub1 ~obj:c1 "x" in
      let y = Lp.add_var p ~ub:ub2 ~obj:c2 "y" in
      List.iter (fun (a, b, r) -> Lp.add_constr p [ (a, x); (b, y) ] Lp.Le r) rows;
      match Simplex.solve p with
      | Simplex.Optimal { obj; x = sol } ->
        let expected = brute_force_2d ~c1 ~c2 ~rows ~ub1 ~ub2 in
        Float.abs (obj -. expected) < 1e-5
        && Lp.constraint_violation p sol < 1e-6
      | _ -> false)

let test_solution_always_feasible =
  QCheck.Test.make ~name:"optimal solutions satisfy all constraints"
    ~count:300 random_2d_lp_arb (fun (c1, c2, rows) ->
      let p = Lp.create () in
      let x = Lp.add_var p ~ub:50. ~obj:c1 "x" in
      let y = Lp.add_var p ~ub:50. ~obj:c2 "y" in
      List.iter (fun (a, b, r) -> Lp.add_constr p [ (a, x); (b, y) ] Lp.Le r) rows;
      match Simplex.solve p with
      | Simplex.Optimal { x = sol; _ } -> Lp.constraint_violation p sol < 1e-6
      | _ -> false)

(* ------------------------------ lp_io ------------------------------ *)

let test_lp_format_smoke () =
  let p = Lp.create ~name:"demo" () in
  let x = Lp.add_var p ~lb:1. ~ub:4. ~obj:3. "x" in
  let y = Lp.add_var p ~lb:neg_infinity ~obj:(-1.) "y!" in
  let z = Lp.add_var p ~lb:2. ~ub:2. "z" in
  let w = Lp.add_var p ~lb:neg_infinity ~ub:5. "w" in
  ignore z;
  ignore w;
  Lp.add_constr p ~name:"r1" [ (1., x); (2., y) ] Lp.Le 7.;
  Lp.add_constr p [ (1., x) ] Lp.Ge 1.;
  Lp.add_constr p [ (1., y) ] Lp.Eq 0.;
  let s = Lp_io.to_lp_format p in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "minimize" true (contains "Minimize");
  Alcotest.(check bool) "subject to" true (contains "Subject To");
  Alcotest.(check bool) "bounds" true (contains "Bounds");
  Alcotest.(check bool) "sanitized name" true (contains "y_");
  Alcotest.(check bool) "fixed var" true (contains "z = 2");
  Alcotest.(check bool) "free var line" true (contains "y_ free");
  Alcotest.(check bool) "half-bounded line" true (contains "-inf <= w <= 5");
  Alcotest.(check bool) "le row" true (contains "<= 7")

(* ---------------------- interval propagation ----------------------- *)

let test_propagate_tightens_and_restores () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:10. "x" in
  let y = Lp.add_var p ~lb:0. ~ub:10. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 4.;
  (match Lp.propagate_bounds p with
  | `Ok undo ->
    checkf "x ub" 4. (Lp.var_ub p x);
    checkf "y ub" 4. (Lp.var_ub p y);
    Alcotest.(check int) "both touched" 2 (List.length undo);
    List.iter (fun (v, lb, ub) -> Lp.set_bounds p v ~lb ~ub) undo;
    checkf "x ub restored" 10. (Lp.var_ub p x);
    checkf "y ub restored" 10. (Lp.var_ub p y)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

let test_propagate_integral_snap () =
  (* 2b >= 1 forces lb(b) = 0.5; integral snapping rounds it to 1. *)
  let p = Lp.create () in
  let b = Lp.add_var p ~lb:0. ~ub:1. "b" in
  Lp.add_constr p [ (2., b) ] Lp.Ge 1.;
  (match Lp.propagate_bounds ~integral:(fun v -> v = b) p with
  | `Ok _ ->
    checkf "b fixed at 1" 1. (Lp.var_lb p b);
    checkf "b ub" 1. (Lp.var_ub p b)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

let test_propagate_detects_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 2.;
  (match Lp.propagate_bounds p with
  | `Ok _ -> Alcotest.fail "should be infeasible"
  | `Infeasible undo ->
    Alcotest.(check bool) "x recorded" true
      (List.exists (fun (v, _, _) -> v = x) undo))

let test_propagate_extra_rows () =
  (* The extra row is not part of the problem but still tightens. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:10. "x" in
  let extra =
    [| { Lp.cname = "pool"; terms = [ (1., x) ]; cmp = Lp.Le; rhs = 3. } |]
  in
  (match Lp.propagate_bounds ~extra p with
  | `Ok _ ->
    checkf "x ub from pool row" 3. (Lp.var_ub p x);
    Alcotest.(check int) "no row added" 0 (Lp.num_constrs p)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

let test_propagate_chains_rows () =
  (* x <= 2 (row), then y <= x + 1 must give y <= 3 on the next sweep. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:10. "x" in
  let y = Lp.add_var p ~lb:0. ~ub:10. "y" in
  Lp.add_constr p [ (1., x) ] Lp.Le 2.;
  Lp.add_constr p [ (1., y); (-1., x) ] Lp.Le 1.;
  (match Lp.propagate_bounds p with
  | `Ok _ -> checkf "y ub chained" 3. (Lp.var_ub p y)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

(* The list-based sweep [Lp_problem.propagate_bounds] ran before it
   moved onto a flat row layout, kept as the reference: the same
   arithmetic over the bounds in [lb] / [ub], with the problem's rows
   then [extra], negated [Ge] and [Eq] directions built per call and a
   hash table for the first-touch undo record. *)
let reference_propagate ?(max_sweeps = 16) ?(integral = fun _ -> false)
    ?(extra = [||]) rows lb ub =
  let changed = ref [] in
  let touched = Hashtbl.create 16 in
  let infeasible = ref false in
  let note v =
    if not (Hashtbl.mem touched v) then begin
      Hashtbl.add touched v ();
      changed := (v, lb.(v), ub.(v)) :: !changed
    end
  in
  let min_gain = 1e-7 in
  let progress = ref true in
  let apply_lb v nlb =
    let nlb = if integral v then Float.round (Float.ceil (nlb -. 1e-6)) else nlb in
    if nlb > lb.(v) +. min_gain then begin
      note v;
      lb.(v) <- nlb;
      progress := true;
      if nlb > ub.(v) +. 1e-6 then infeasible := true
    end
  in
  let apply_ub v nub =
    let nub = if integral v then Float.round (Float.floor (nub +. 1e-6)) else nub in
    if nub < ub.(v) -. min_gain then begin
      note v;
      ub.(v) <- nub;
      progress := true;
      if lb.(v) > nub +. 1e-6 then infeasible := true
    end
  in
  let forward terms b =
    let finite_sum = ref 0. and n_inf = ref 0 in
    List.iter
      (fun (a, v) ->
        let m = if a > 0. then a *. lb.(v) else a *. ub.(v) in
        if Float.is_finite m then finite_sum := !finite_sum +. m
        else incr n_inf)
      terms;
    List.iter
      (fun (a, v) ->
        if a <> 0. then begin
          let own = if a > 0. then a *. lb.(v) else a *. ub.(v) in
          let rest =
            if !n_inf = 0 then Some (!finite_sum -. own)
            else if !n_inf = 1 && not (Float.is_finite own) then
              Some !finite_sum
            else None
          in
          match rest with
          | None -> ()
          | Some rest ->
            let limit = (b -. rest) /. a in
            if a > 0. then apply_ub v limit else apply_lb v limit
        end)
      terms
  in
  let sweep_row (row : Lp.constr) =
    let neg = List.map (fun (a, v) -> (-.a, v)) in
    match row.Lp.cmp with
    | Lp.Le -> forward row.Lp.terms row.Lp.rhs
    | Lp.Ge -> forward (neg row.Lp.terms) (-.row.Lp.rhs)
    | Lp.Eq ->
      forward row.Lp.terms row.Lp.rhs;
      forward (neg row.Lp.terms) (-.row.Lp.rhs)
  in
  let all = Array.append rows extra in
  let sweeps = ref 0 in
  while !progress && (not !infeasible) && !sweeps < max_sweeps do
    progress := false;
    incr sweeps;
    let r = ref 0 in
    while (not !infeasible) && !r < Array.length all do
      sweep_row all.(!r);
      incr r
    done
  done;
  if !infeasible then `Infeasible !changed else `Ok !changed

(* A random problem and a random run of edits between propagation
   calls: appended, truncated and rewritten rows and a replaced [extra]
   array all change the rows a call must sweep, so a stale cached layout
   would show; bound writes and a switch of integrality predicate change
   what a row would conclude, so a row wrongly kept clean would show. *)
type prop_op =
  | Propagate of int * bool  (* max_sweeps, second predicate *)
  | Append of Lp.constr
  | Truncate of int
  | Rewrite of int * Lp.constr
  | Set_extra of Lp.constr array
  | Reset_bounds
  | Set_bounds of int * (float * float)
  | Tighten_bounds of int * (float * float)

type prop_case = {
  p_bounds : (float * float) array;
  p_integral : bool array;
  p_integral2 : bool array;
  p_rows : Lp.constr list;
  p_ops : prop_op list;
}

let prop_case_gen =
  QCheck.Gen.(
    let* nv = int_range 1 7 in
    let bound =
      let* lo = oneofl [ neg_infinity; -3.; 0.; 0.; 1. ] in
      let* span = int_range 0 10 in
      let* open_up = int_bound 4 in
      let hi =
        if open_up = 0 then infinity
        else (if lo = neg_infinity then 2. else lo) +. float_of_int span
      in
      return (lo, hi)
    in
    let row =
      let* terms =
        list_size (int_range 1 4)
          (let* c = map (fun n -> float_of_int (n - 3)) (int_bound 6) in
           let* v = int_bound (nv - 1) in
           return (c, v))
      in
      let* cmp = frequency [ (4, return Lp.Le); (3, return Lp.Ge); (2, return Lp.Eq) ] in
      let* rhs = map (fun n -> float_of_int (n - 4)) (int_bound 14) in
      (* [terms] may name a variable twice; the problem sums such terms,
         so rows built here are collapsed the same way below. *)
      return { Lp.cname = "r"; terms; cmp; rhs }
    in
    let* p_bounds = array_repeat nv bound in
    let* p_integral = array_repeat nv bool in
    let* p_integral2 = array_repeat nv bool in
    let* p_rows = list_size (int_range 0 6) row in
    let op =
      frequency
        [ (6, map2 (fun s b -> Propagate (s, b)) (int_range 1 16) bool);
          (2, map (fun r -> Append r) row);
          (2, map (fun k -> Truncate k) (int_bound 8));
          (1, map2 (fun i r -> Rewrite (i, r)) (int_bound 8) row);
          (2, map (fun l -> Set_extra (Array.of_list l)) (list_size (int_bound 3) row));
          (1, return Reset_bounds);
          (2, map2 (fun v b -> Set_bounds (v, b)) (int_bound (nv - 1)) bound);
          (2,
           map2 (fun v b -> Tighten_bounds (v, b)) (int_bound (nv - 1)) bound)
        ]
    in
    let* p_ops = list_size (int_range 1 16) op in
    return { p_bounds; p_integral; p_integral2; p_rows; p_ops })

let print_prop_case c =
  let row (r : Lp.constr) =
    Printf.sprintf "[%s] %s %g"
      (String.concat " + "
         (List.map (fun (a, v) -> Printf.sprintf "%g x%d" a v) r.Lp.terms))
      (match r.Lp.cmp with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=")
      r.Lp.rhs
  in
  let bits a =
    String.concat ""
      (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  Printf.sprintf "bounds %s integral %s / %s rows %s ops %s"
    (String.concat ","
       (Array.to_list
          (Array.map (fun (l, u) -> Printf.sprintf "[%g,%g]" l u) c.p_bounds)))
    (bits c.p_integral) (bits c.p_integral2)
    (String.concat "; " (List.map row c.p_rows))
    (String.concat "; "
       (List.map
          (function
            | Propagate (s, second) ->
              Printf.sprintf "propagate(%d%s)" s
                (if second then ", second" else "")
            | Append r -> "append " ^ row r
            | Truncate k -> Printf.sprintf "truncate %d" k
            | Rewrite (i, r) -> Printf.sprintf "rewrite %d %s" i (row r)
            | Set_extra e ->
              "extra [" ^ String.concat "; " (Array.to_list (Array.map row e)) ^ "]"
            | Reset_bounds -> "reset"
            | Set_bounds (v, (l, u)) -> Printf.sprintf "set x%d [%g,%g]" v l u
            | Tighten_bounds (v, (l, u)) ->
              Printf.sprintf "tighten x%d [%g,%g]" v l u)
          c.p_ops))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_undo u1 u2 =
  List.length u1 = List.length u2
  && List.for_all2
       (fun (v1, l1, h1) (v2, l2, h2) ->
         v1 = v2 && same_float l1 l2 && same_float h1 h2)
       u1 u2

let test_propagate_matches_reference =
  QCheck.Test.make
    ~name:"propagate_bounds = list-based reference (result, undo, bounds)"
    ~count:500
    (QCheck.make ~print:print_prop_case prop_case_gen)
    (fun c ->
      let nv = Array.length c.p_bounds in
      let p = Lp.create () in
      Array.iteri
        (fun i (lb, ub) -> ignore (Lp.add_var p ~lb ~ub (Printf.sprintf "x%d" i)))
        c.p_bounds;
      let add (r : Lp.constr) = Lp.add_constr p r.Lp.terms r.Lp.cmp r.Lp.rhs in
      List.iter add c.p_rows;
      (* Two predicates, each one closure for the whole run: a row the
         first left clean must be swept again under the second. *)
      let integral1 v = c.p_integral.(v)
      and integral2 v = c.p_integral2.(v) in
      let extra = ref [||] in
      let ok = ref true in
      List.iter
        (function
          | Propagate (max_sweeps, second) ->
            let integral = if second then integral2 else integral1 in
            let lb = Array.init nv (Lp.var_lb p)
            and ub = Array.init nv (Lp.var_ub p) in
            let want =
              reference_propagate ~max_sweeps ~integral ~extra:!extra
                (Lp.constraints p) lb ub
            in
            let got = Lp.propagate_bounds ~max_sweeps ~integral ~extra:!extra p in
            let same_result =
              match (want, got) with
              | `Ok u1, `Ok u2 | `Infeasible u1, `Infeasible u2 -> same_undo u1 u2
              | _ -> false
            in
            let same_bounds =
              List.for_all
                (fun v ->
                  same_float lb.(v) (Lp.var_lb p v)
                  && same_float ub.(v) (Lp.var_ub p v))
                (List.init nv Fun.id)
            in
            if not (same_result && same_bounds) then ok := false
          | Append r -> add r
          | Truncate k -> Lp.truncate_constrs p (k mod (Lp.num_constrs p + 1))
          | Rewrite (i, r) ->
            if Lp.num_constrs p > 0 then
              Lp.update_constr p (i mod Lp.num_constrs p) r.Lp.terms r.Lp.cmp
                r.Lp.rhs
          | Set_extra e -> extra := e
          | Reset_bounds ->
            Array.iteri (fun v (lb, ub) -> Lp.set_bounds p v ~lb ~ub) c.p_bounds
          | Set_bounds (v, (lb, ub)) -> Lp.set_bounds p v ~lb ~ub
          | Tighten_bounds (v, (lb, ub)) ->
            ignore (Lp.tighten_bounds p v ~lb ~ub))
        c.p_ops;
      !ok)

let test_objective_interval () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:1. ~ub:2. ~obj:2. "x" in
  let y = Lp.add_var p ~lb:0. ~ub:3. ~obj:(-1.) "y" in
  ignore x;
  ignore y;
  let lo, hi = Lp.objective_interval p in
  checkf "lo" (-1.) lo;
  checkf "hi" 4. hi

let () =
  Alcotest.run "fp_lp"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "duplicate terms" `Quick test_builder_duplicate_terms;
          Alcotest.test_case "bad var" `Quick test_builder_bad_var;
          Alcotest.test_case "bad bounds" `Quick test_builder_bad_bounds;
          Alcotest.test_case "tighten bounds" `Quick test_tighten_bounds;
          Alcotest.test_case "violation" `Quick test_violation;
        ] );
      ( "propagate",
        [
          Alcotest.test_case "tightens and restores" `Quick
            test_propagate_tightens_and_restores;
          Alcotest.test_case "integral snap" `Quick test_propagate_integral_snap;
          Alcotest.test_case "detects infeasible" `Quick
            test_propagate_detects_infeasible;
          Alcotest.test_case "extra rows" `Quick test_propagate_extra_rows;
          Alcotest.test_case "chains rows" `Quick test_propagate_chains_rows;
          Alcotest.test_case "objective interval" `Quick test_objective_interval;
          QCheck_alcotest.to_alcotest test_propagate_matches_reference;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "degenerate" `Quick test_degenerate_lp;
          Alcotest.test_case "equalities" `Quick test_equality_system;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "upper bounded only" `Quick test_upper_bounded_only;
          Alcotest.test_case "bound flips" `Quick test_bound_flips;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "infeasible equalities" `Quick
            test_infeasible_equalities;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "empty objective" `Quick test_empty_objective;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          QCheck_alcotest.to_alcotest test_simplex_matches_brute_force;
          QCheck_alcotest.to_alcotest test_solution_always_feasible;
        ] );
      ( "lp_io",
        [ Alcotest.test_case "format smoke" `Quick test_lp_format_smoke ] );
    ]
