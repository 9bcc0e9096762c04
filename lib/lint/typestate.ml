(* Typestate / protocol abstract interpretation over the {!Callgraph}.

   Protocols are small DFAs: a state set, events keyed on
   module-qualified calls (resolved through the same open/alias
   machinery as the call graph, {!Callgraph.resolve}), and error
   transitions.  A flow-sensitive, path-insensitive-with-merge walk
   tracks the abstract state of each tracked value — let-bound
   resources, aliases of them, values escaping into closures — through
   sequencing, branches, loops and [Fun.protect].  The walk is made
   interprocedural by per-function protocol summaries computed in the
   same monotone-fixpoint style as {!Effects}: for every definition,
   every parameter and every protocol, the summary records the relation
   a call applies to a value passed in that parameter (per start state:
   the possible exit states, the errors reachable, or "escapes").

   Three value-lifecycle protocols ride this machinery:

   - SA013 pool lifecycle      live --use--> live, live --shutdown--> down,
                               down --use / shutdown--> ERROR; a created
                               pool still live at scope exit leaks.
   - SA014 channel lifecycle   open --write--> open, open --close--> closed,
                               closed --write / close--> ERROR (close_noerr
                               after close is sanctioned); plus the
                               journal-only atomic-rename check.
   - SA016 RNG stream          fresh --sample--> fresh, --split--> split,
                               split --split--> split, split --sample-->
                               ERROR (the parent advanced; replay diverges).

   One protocol has a bespoke walk in the same module:

   - SA017 Atomic protocol: [Atomic.set a e] where [e] derives from
     [Atomic.get a] of the same atomic (directly or through a let
     binding) and no [compare_and_set] consumes the read — the
     load–store RMW shape that races between domains.

   Findings carry DFA-trace witnesses — the event sequence that reached
   the error state, each event with its line — rendered like the
   {!Effects} witness chains.

   Precision envelope (documented in docs/static-analysis.md): tracking
   is by local name; a resource stored into a ref/field/container,
   returned, or passed where no summary applies is {e escaped} and
   stops being checked (conservatively quiet).  Teardown obligations
   are exception-aware through one blessed shape: a teardown in the
   [~finally] of [Fun.protect] discharges the obligation on both exits;
   a teardown on the normal path after uses of the resource, outside
   any [~finally], is flagged as skippable by an exception. *)

open Parsetree
open Ast_util

(* ------------------------------------------------------------------ *)
(* Protocol declarations                                                *)
(* ------------------------------------------------------------------ *)

type dfa = {
  pname : string;                 (* protocol id used in reports *)
  rule : Finding.rule;
  what : string;                  (* noun for messages *)
  creator : string list -> bool;  (* call path producing a fresh value *)
  event_of : string list -> string option;
  states : string list;           (* non-error states *)
  canonical : string;             (* assumed entry state of tracked params *)
  step : string -> string -> string option;  (* None = error transition *)
  err : string -> string -> string;          (* state -> event -> message *)
  live : string list;             (* states owing a teardown at scope exit *)
  teardown : string list;         (* events discharging the obligation *)
}

let l2 p = match last2 p with Some ab -> Some ab | None -> None

let pool_dfa =
  {
    pname = "pool";
    rule = Finding.SA013;
    what = "pool";
    creator = (fun p -> l2 p = Some ("Pool", "create"));
    event_of =
      (fun p ->
        match l2 p with
        | Some ("Pool", ("run" | "map" | "jobs")) -> Some "use"
        | Some ("Pool", "shutdown") -> Some "shutdown"
        | _ -> None);
    states = [ "live"; "down" ];
    canonical = "live";
    step =
      (fun st ev ->
        match (st, ev) with
        | "live", "use" -> Some "live"
        | "live", "shutdown" -> Some "down"
        | "down", _ -> None
        | _ -> Some st);
    err =
      (fun st ev ->
        match (st, ev) with
        | "down", "use" -> "pool used after Pool.shutdown"
        | "down", "shutdown" -> "pool shut down twice"
        | _ -> "pool protocol violation");
    live = [ "live" ];
    teardown = [ "shutdown" ];
  }

(* Both channel directions in one DFA: the events never overlap, and a
   finding names the primitive anyway. *)
let chan_dfa =
  let openers =
    [ "open_out"; "open_out_bin"; "open_out_gen"; "open_in"; "open_in_bin";
      "open_in_gen" ]
  and writers =
    [ "output_string"; "output_char"; "output_byte"; "output_bytes";
      "output_value"; "output_substring"; "flush"; "seek_out"; "pos_out" ]
  and readers =
    [ "input_line"; "input_char"; "input_byte"; "input_value";
      "really_input_string"; "in_channel_length"; "seek_in"; "pos_in";
      "input" ]
  in
  {
    pname = "chan";
    rule = Finding.SA014;
    what = "channel";
    creator = (fun p -> match p with [ x ] -> List.mem x openers | _ -> false);
    event_of =
      (fun p ->
        match p with
        | [ x ] when List.mem x writers || List.mem x readers -> Some "io"
        | [ ("close_out" | "close_in") ] -> Some "close"
        | [ ("close_out_noerr" | "close_in_noerr") ] -> Some "close_noerr"
        | [ "Printf"; "fprintf" ] -> Some "io"
        | _ -> None);
    states = [ "open"; "closed" ];
    canonical = "open";
    step =
      (fun st ev ->
        match (st, ev) with
        | "open", "io" -> Some "open"
        | "open", ("close" | "close_noerr") -> Some "closed"
        | "closed", "close_noerr" -> Some "closed"
        | "closed", ("io" | "close") -> None
        | _ -> Some st);
    err =
      (fun st ev ->
        match (st, ev) with
        | "closed", "io" -> "channel used after close"
        | "closed", "close" -> "channel closed twice"
        | _ -> "channel protocol violation");
    live = [ "open" ];
    teardown = [ "close"; "close_noerr" ];
  }

let rng_dfa =
  {
    pname = "rng";
    rule = Finding.SA016;
    what = "RNG stream";
    creator =
      (fun p ->
        match l2 p with
        | Some ("Rng", ("create" | "copy" | "split")) -> true
        | _ -> false);
    event_of =
      (fun p ->
        match l2 p with
        | Some ("Rng", ("split" | "split_n")) -> Some "split"
        | Some
            ( "Rng",
              ( "int" | "float" | "bool" | "range" | "next_int64" | "shuffle"
              | "shuffle_list" ) ) ->
          Some "sample"
        | _ -> None);
    states = [ "fresh"; "split" ];
    canonical = "fresh";
    step =
      (fun st ev ->
        match (st, ev) with
        | "fresh", "sample" -> Some "fresh"
        | _, "split" -> Some "split"
        | "split", "sample" -> None
        | _ -> Some st);
    err =
      (fun st ev ->
        match (st, ev) with
        | "split", "sample" ->
          "parent Rng.t sampled after split/split_n derived children from \
           it — the parent stream advanced, so replay silently diverges; \
           sample before splitting or use a dedicated child stream"
        | _ -> "RNG stream protocol violation");
    live = [];
    teardown = [];
  }

let dfas = [| pool_dfa; chan_dfa; rng_dfa |]
let n_dfas = Array.length dfas

(* ------------------------------------------------------------------ *)
(* Summaries                                                            *)
(* ------------------------------------------------------------------ *)

(* What a call does to a value passed in one parameter, per protocol.
   [errs] holds only errors reachable from a non-canonical start state:
   errors from the canonical state are the callee's own finding at its
   own line (the check pass emits them there), not the call site's. *)
type rel_entry = {
  from_ : string;
  exits : string list;                 (* sorted *)
  errs : (string * string list) list;  (* message, callee-side trace *)
}

(* Absence from the table means identity: the parameter never meets
   this protocol. *)
type action =
  | Rel of rel_entry list
  | Esc                   (* escapes inside the callee: stop tracking *)

type summaries = (string * int * int, action) Hashtbl.t
(* keyed by (qname, dfa index, param index) *)

(* ------------------------------------------------------------------ *)
(* The store: abstract state of tracked values                          *)
(* ------------------------------------------------------------------ *)

module SM = Map.Make (String)
module IM = Map.Make (Int)

type origin = Created | Param of int * string  (* index, start state *)

type conf = { o : origin; st : string; tr : string list (* reversed *) }

type cell = {
  dfa : int;
  confs : conf list;     (* deduped by (o, st); first trace wins *)
  escaped : bool;
  protected_ : bool;     (* teardown seen in a Fun.protect ~finally *)
  uses : int;            (* non-teardown events applied so far *)
  born : int;            (* creation line (0 for params) *)
}

let conf_mem c cs = List.exists (fun c' -> c'.o = c.o && c'.st = c.st) cs

let conf_union a b =
  List.fold_left (fun acc c -> if conf_mem c acc then acc else c :: acc) a b

let join_cell a b =
  {
    a with
    confs = conf_union a.confs b.confs;
    escaped = a.escaped || b.escaped;
    protected_ = a.protected_ || b.protected_;
    uses = Int.max a.uses b.uses;
  }

let join_store s1 s2 =
  IM.union (fun _ a b -> Some (join_cell a b)) s1 s2

(* ------------------------------------------------------------------ *)
(* The walk                                                             *)
(* ------------------------------------------------------------------ *)

type wctx = {
  cg : Callgraph.t;
  file : string;
  sums : summaries;
  emit : int -> Finding.rule -> string -> unit;  (* no-op in summary mode *)
  summary_mode : bool;
  errors : (int * int, (string * string * string list) list) Hashtbl.t;
      (* summary mode: (dfa, param) -> (start state, msg, trace) *)
}

let ev_label path line = String.concat "." path ^ ":" ^ string_of_int line

let render_trace tr = String.concat " -> " (List.rev tr)

(* The call path, both syntactically and resolved through the file's
   opens/aliases, so [shutdown t] inside pool.ml and
   [Fp_util.Pool.shutdown t] elsewhere both classify. *)
let call_paths ctx p =
  match Callgraph.resolve ctx.cg ~file:ctx.file p with
  | Some q -> [ p; String.split_on_char '.' q ]
  | None -> [ p ]

let classify_event ctx dfa p =
  List.find_map dfa.event_of (call_paths ctx p)

let classify_creator ctx dfa p =
  List.exists dfa.creator (call_paths ctx p)

(* Strip a [fun () -> e] / [fun _ -> e] thunk one level. *)
let strip_thunk e =
  match e.pexp_desc with Pexp_fun (_, _, _, b) -> b | _ -> e

(* Strip a definition's whole leading [fun] chain — the part
   {!Callgraph.params_of} turned into the parameter list.  Walking a
   def body must start below it: the chain's patterns are exactly the
   params {!bind_params} just bound, and the closure-shaped walk case
   would shadow them away again (and join the store as may-run). *)
let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> strip_params body
  | Pexp_constraint (body, _) -> strip_params body
  | _ -> e

let first_unlabelled args =
  List.find_map
    (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
    args

let labelled name args =
  List.find_map
    (fun (l, a) ->
      match l with
      | Asttypes.Labelled n | Asttypes.Optional n when n = name -> Some a
      | _ -> None)
    args

let tracked_ident env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> (
    match SM.find_opt s env with Some id -> Some (s, id) | None -> None)
  | _ -> None

let record_error ctx cell c msg tr =
  match c.o with
  | Param (j, s0) when ctx.summary_mode ->
    let key = (cell.dfa, j) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.errors key) in
    if not (List.exists (fun (s, _, _) -> s = s0) prev) then
      Hashtbl.replace ctx.errors key ((s0, msg, tr) :: prev)
  | _ -> ()

(* Apply one event to a cell; returns the updated cell, emitting (or
   recording) error transitions.  After an error the cell stops being
   tracked — one witness per defect, no cascades. *)
let apply_event ctx line label id cell ev store =
  let dfa = dfas.(cell.dfa) in
  let errored = ref false in
  let confs =
    List.filter_map
      (fun c ->
        match dfa.step c.st ev with
        | Some st' ->
          Some { c with st = st'; tr = (label ^ ":" ^ string_of_int line) :: c.tr }
        | None ->
          errored := true;
          let tr = (label ^ ":" ^ string_of_int line) :: c.tr in
          let bare = dfa.err c.st ev in
          let full =
            Printf.sprintf "%s — protocol trace: %s" bare (render_trace tr)
          in
          (match c.o with
          | Created -> ctx.emit line dfa.rule full
          | Param (_, s0) ->
            if s0 = dfa.canonical && not ctx.summary_mode then
              ctx.emit line dfa.rule full
            else record_error ctx cell c bare (List.rev tr));
          None)
      cell.confs
  in
  (* Exception-safety of the teardown: closing after uses, outside any
     [~finally], leaks when a use raises. *)
  if
    List.mem ev dfa.teardown
    && (not ctx.summary_mode)
    && (not cell.protected_)
    && cell.uses > 0
    && List.exists (fun c -> List.mem c.st dfa.live) cell.confs
  then
    ctx.emit line dfa.rule
      (Printf.sprintf
         "%s %s here can be skipped if an earlier use raises — wrap the \
          uses in Fun.protect ~finally:(fun () -> %s ...)"
         dfa.what label label);
  let uses =
    if List.mem ev dfa.teardown then cell.uses else cell.uses + 1
  in
  (* In check mode an errored cell stops being tracked — one witness
     per defect, no cascades.  In summary mode only the erroring start
     state's conf is dropped (already filtered above): the other start
     states must keep accumulating their relation. *)
  let cell' =
    if !errored && not ctx.summary_mode then
      { cell with confs; uses; escaped = true }
    else { cell with confs; uses }
  in
  IM.add id cell' store

let escape id store =
  match IM.find_opt id store with
  | Some cell -> IM.add id { cell with escaped = true } store
  | None -> store

(* Apply a callee's summary action for (q, param j) to a tracked arg. *)
let apply_summary ctx line q id cell j store =
  match Hashtbl.find_opt ctx.sums (q, cell.dfa, j) with
  | None -> store
  | Some Esc -> escape id store
  | Some (Rel entries) ->
    let dfa = dfas.(cell.dfa) in
    let label = q ^ ":" ^ string_of_int line in
    let errored = ref false in
    let confs =
      List.concat_map
        (fun c ->
          match List.find_opt (fun e -> e.from_ = c.st) entries with
          | None -> [ c ]
          | Some e ->
            if e.errs <> [] && c.st <> dfa.canonical then begin
              errored := true;
              List.iter
                (fun (bare, sub) ->
                  let tr = List.rev_append (label :: c.tr) sub in
                  let full =
                    Printf.sprintf "%s — protocol trace: %s" bare
                      (String.concat " -> " tr)
                  in
                  match c.o with
                  | Created -> ctx.emit line dfa.rule full
                  | Param (_, s0) ->
                    if s0 = dfa.canonical && not ctx.summary_mode then
                      ctx.emit line dfa.rule full
                    else record_error ctx cell c bare tr)
                e.errs
            end;
            List.map (fun st -> { c with st; tr = label :: c.tr }) e.exits)
        cell.confs
    in
    let confs =
      List.fold_left
        (fun acc c -> if conf_mem c acc then acc else c :: acc)
        [] confs
    in
    let touched =
      List.exists
        (fun e -> e.exits <> [ e.from_ ] || e.errs <> [])
        entries
    in
    let cell' =
      {
        cell with
        confs;
        uses = (if touched then cell.uses + 1 else cell.uses);
        escaped =
          cell.escaped || (!errored && not ctx.summary_mode);
      }
    in
    IM.add id cell' store

(* Does [fin] apply a teardown event to the variable bound to [id]? *)
let finally_tears ctx env fin id =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply (f, args) -> (
            match ident_path f with
            | Some p -> (
              match tracked_ident env (Option.value (first_unlabelled args)
                                         ~default:ex) with
              | Some (_, id') when id' = id ->
                Array.iteri
                  (fun i dfa ->
                    ignore i;
                    match classify_event ctx dfa p with
                    | Some ev when List.mem ev dfa.teardown -> found := true
                    | _ -> ())
                  dfas
              | _ -> ())
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it fin;
  !found

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* The journal atomic-rename check: every [open_out*] in journal.ml
   must target the [.tmp] sibling that [Sys.rename] later moves into
   place. *)
let mentions_tmp_literal e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _))
            when String.length s >= 4
                 && String.sub s (String.length s - 4) 4 = ".tmp" ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let rec walk ctx ~in_finally env store e =
  let walk' = walk ctx ~in_finally in
  match e.pexp_desc with
  | Pexp_let (_, vbs, body) ->
    (* A plain [let y = x] alias must not be walked as an expression:
       the bare tracked ident would count as an escape.  Every other
       right-hand side is walked normally. *)
    let is_alias vb =
      match (pat_vars [] vb.pvb_pat, vb.pvb_expr.pexp_desc) with
      | [ _ ], Pexp_ident { txt = Longident.Lident m; _ } ->
        SM.mem m env
      | _ -> false
    in
    let store =
      List.fold_left
        (fun s vb -> if is_alias vb then s else walk' env s vb.pvb_expr)
        store vbs
    in
    let env', created, store =
      List.fold_left
        (fun (env', created, store) vb ->
          match pat_vars [] vb.pvb_pat with
          | [ n ] -> (
            let rhs =
              match vb.pvb_expr.pexp_desc with
              | Pexp_constraint (e', _) -> e'
              | _ -> vb.pvb_expr
            in
            match rhs.pexp_desc with
            | Pexp_apply (f, _) -> (
              match ident_path f with
              | Some p -> (
                let line = line_of vb.pvb_expr.pexp_loc in
                match
                  List.find_opt
                    (fun i -> classify_creator ctx dfas.(i) p)
                    (List.init n_dfas Fun.id)
                with
                | Some di ->
                  let id = fresh_id () in
                  let label = ev_label p line in
                  let cell =
                    {
                      dfa = di;
                      confs =
                        [ { o = Created;
                            st = dfas.(di).canonical;
                            tr = [ label ] } ];
                      escaped = false;
                      protected_ = false;
                      uses = 0;
                      born = line;
                    }
                  in
                  (SM.add n id env', (n, id) :: created, IM.add id cell store)
                | None -> (SM.remove n env', created, store))
              | None -> (SM.remove n env', created, store))
            | Pexp_ident { txt = Longident.Lident m; _ } -> (
              (* Alias: both names share the cell. *)
              match SM.find_opt m env with
              | Some id -> (SM.add n id env', created, store)
              | None -> (SM.remove n env', created, store))
            | _ -> (SM.remove n env', created, store))
          | vars ->
            (List.fold_left (fun e v -> SM.remove v e) env' vars, created,
             store))
        (env, [], store) vbs
    in
    let store = walk' env' store body in
    (* Scope exit: a created resource still owing its teardown leaks. *)
    if not ctx.summary_mode then
      List.iter
        (fun (_, id) ->
          match IM.find_opt id store with
          | Some cell when not cell.escaped ->
            let dfa = dfas.(cell.dfa) in
            let live_confs =
              List.filter (fun c -> List.mem c.st dfa.live) cell.confs
            in
            if live_confs <> [] && dfa.live <> [] then
              let all_live =
                List.for_all (fun c -> List.mem c.st dfa.live) cell.confs
              in
              let tear = String.concat "/" dfa.teardown in
              ctx.emit cell.born dfa.rule
                (Printf.sprintf
                   "%s created here is %s on %s path before going out of \
                    scope — protocol trace: %s"
                   dfa.what
                   (if all_live then "never " ^ tear else "not " ^ tear)
                   (if all_live then "any" else "every")
                   (render_trace (List.hd live_confs).tr))
          | _ -> ())
        created;
    store
  | Pexp_ident { txt = Longident.Lident s; _ } -> (
    match SM.find_opt s env with
    | Some id -> escape id store
    | None -> store)
  | Pexp_apply _ -> walk_apply ctx ~in_finally env store e
  | Pexp_sequence (a, b) ->
    let store = walk' env store a in
    walk' env store b
  | Pexp_ifthenelse (c, a, b) ->
    let store = walk' env store c in
    let s1 = walk' env store a in
    let s2 = match b with Some b -> walk' env store b | None -> store in
    join_store s1 s2
  | Pexp_match (scrut, cases) ->
    let store = walk' env store scrut in
    walk_cases ctx ~in_finally env store cases
  | Pexp_try (scrut, cases) ->
    let s0 = walk' env store scrut in
    (* Handlers can run from any prefix of the body: join pre/post. *)
    let s1 = walk_cases ctx ~in_finally env (join_store store s0) cases in
    join_store s0 s1
  | Pexp_function cases ->
    (* A closure value: its body may run zero or more times. *)
    join_store store (walk_cases ctx ~in_finally env store cases)
  | Pexp_fun (_, dflt, pat, body) ->
    let store =
      match dflt with Some d -> walk' env store d | None -> store
    in
    let env' =
      List.fold_left (fun e v -> SM.remove v e) env (pat_vars [] pat)
    in
    join_store store (walk ctx ~in_finally env' store body)
  | Pexp_while (c, body) ->
    let s0 = walk' env store c in
    let s1 = join_store s0 (walk' env s0 body) in
    join_store s1 (walk' env s1 body)
  | Pexp_for (pat, lo, hi, _, body) ->
    let store = walk' env store lo in
    let store = walk' env store hi in
    let env' =
      List.fold_left (fun e v -> SM.remove v e) env (pat_vars [] pat)
    in
    let s1 = join_store store (walk ctx ~in_finally env' store body) in
    join_store s1 (walk ctx ~in_finally env' s1 body)
  | _ ->
    List.fold_left (fun s e' -> walk' env s e') store (sub_exprs e)

and walk_cases ctx ~in_finally env store cases =
  match cases with
  | [] -> store
  | _ ->
    let branches =
      List.map
        (fun c ->
          let env' =
            List.fold_left
              (fun e v -> SM.remove v e)
              env
              (pat_vars [] c.pc_lhs)
          in
          let s =
            match c.pc_guard with
            | Some g -> walk ctx ~in_finally env' store g
            | None -> store
          in
          walk ctx ~in_finally env' s c.pc_rhs)
        cases
    in
    List.fold_left join_store (List.hd branches) (List.tl branches)

and walk_apply ctx ~in_finally env store e =
  (* Flatten [f x @@ y] / [y |> f x] into one application. *)
  let rec flat e extra =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some [ "@@" ] -> (
        match args with
        | [ (_, g); (_, x) ] -> flat g [ (Asttypes.Nolabel, x) ]
        | _ -> (f, args @ extra))
      | Some [ "|>" ] -> (
        match args with
        | [ (_, x); (_, g) ] -> flat g [ (Asttypes.Nolabel, x) ]
        | _ -> (f, args @ extra))
      | _ -> (f, args @ extra))
    | _ -> (e, extra)
  in
  let f, args = flat e [] in
  match ident_path f with
  | Some [ "Fun"; "protect" ] -> (
    let fin = labelled "finally" args in
    let body = first_unlabelled args in
    match (fin, body) with
    | Some fin, Some body ->
      (* The finally's teardowns are exception-safe: discharge the
         obligation before walking the protected body. *)
      let store =
        SM.fold
          (fun _ id s ->
            match IM.find_opt id s with
            | Some cell
              when (not cell.protected_) && finally_tears ctx env fin id ->
              IM.add id { cell with protected_ = true } s
            | _ -> s)
          env store
      in
      let store =
        walk ctx ~in_finally env store (strip_thunk body)
      in
      walk ctx ~in_finally:true env store (strip_thunk fin)
    | _ ->
      List.fold_left
        (fun s (_, a) -> walk ctx ~in_finally env s a)
        store args)
  | Some p ->
    let line = line_of e.pexp_loc in
    (* Which args does an event/summary consume (so they are not walked
       as escapes)? *)
    let consumed = ref [] in
    let store = ref store in
    (* 1. protocol events on a tracked first unlabelled argument *)
    (match first_unlabelled args with
    | Some a0 -> (
      match tracked_ident env a0 with
      | Some (_, id) -> (
        match IM.find_opt id !store with
        | Some cell when not cell.escaped -> (
          match classify_event ctx dfas.(cell.dfa) p with
          | Some ev ->
            consumed := a0 :: !consumed;
            let label =
              match l2 p with
              | Some (a, b) -> a ^ "." ^ b
              | None -> String.concat "." p
            in
            store := apply_event ctx line label id cell ev !store
          | None -> ())
        | _ -> ())
      | None -> ())
    | None -> ());
    (* 2. resolved calls: apply per-parameter summaries to tracked args *)
    (match Callgraph.resolve ctx.cg ~file:ctx.file p with
    | Some q -> (
      match Callgraph.find ctx.cg q with
      | Some d ->
        List.iteri
          (fun j _ ->
            match Interproc.arg_expr_for d.Callgraph.params args j with
            | Some a when not (List.memq a !consumed) -> (
              match tracked_ident env a with
              | Some (_, id) -> (
                match IM.find_opt id !store with
                | Some cell when not cell.escaped ->
                  consumed := a :: !consumed;
                  store := apply_summary ctx line q id cell j !store
                | _ -> ())
              | None -> ())
            | _ -> ())
          d.Callgraph.params
      | None -> ())
    | None -> ());
    List.fold_left
      (fun s (_, a) ->
        if List.memq a !consumed then s else walk ctx ~in_finally env s a)
      !store args
  | None ->
    let store = walk ctx ~in_finally env store f in
    List.fold_left
      (fun s (_, a) -> walk ctx ~in_finally env s a)
      store args

(* ------------------------------------------------------------------ *)
(* Per-definition driver                                                *)
(* ------------------------------------------------------------------ *)

(* Bind the named parameters of [d] as tracked values.  In summary mode
   every non-error state is a start; in check mode only the canonical
   one (what a caller should pass). *)
let bind_params ~summary_mode (d : Callgraph.def) di =
  let dfa = dfas.(di) in
  let states = if summary_mode then dfa.states else [ dfa.canonical ] in
  let env, store, ids =
    List.fold_left
      (fun (env, store, ids) (j, name) ->
        match name with
        | None -> (env, store, ids)
        | Some n ->
          let id = fresh_id () in
          let confs =
            List.map (fun s -> { o = Param (j, s); st = s; tr = [] }) states
          in
          ( SM.add n id env,
            IM.add id
              { dfa = di; confs; escaped = false; protected_ = false;
                uses = 0; born = d.Callgraph.line }
              store,
            (j, id) :: ids ))
      (SM.empty, IM.empty, [])
      (List.mapi (fun j (_, n) -> (j, n)) d.Callgraph.params)
  in
  (env, store, List.rev ids)

(* Does the body syntactically mention any event/creator of [dfa], or
   call a definition that already has a summary for it?  Cheap gate so
   the fixpoint only walks relevant definitions. *)
let relevant cg sums (d : Callgraph.def) di =
  let dfa = dfas.(di) in
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            let p = norm (flatten txt) in
            if dfa.creator p || dfa.event_of p <> None then found := true)
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it d.Callgraph.body;
  !found
  || List.exists
       (fun (c : Callgraph.call) ->
         Hashtbl.length sums > 0
         && List.exists
              (fun j -> Hashtbl.mem sums (c.Callgraph.callee, di, j))
              (List.init 8 Fun.id))
       (Callgraph.calls cg d.Callgraph.qname)

let summarize_def cg sums (d : Callgraph.def) di =
  let errors = Hashtbl.create 4 in
  let ctx =
    { cg; file = d.Callgraph.file; sums; emit = (fun _ _ _ -> ());
      summary_mode = true; errors }
  in
  let env, store, ids = bind_params ~summary_mode:true d di in
  if ids = [] then []
  else begin
    let store =
      walk ctx ~in_finally:false env store (strip_params d.Callgraph.body)
    in
    List.filter_map
      (fun (j, id) ->
        match IM.find_opt id store with
        | None -> None
        | Some cell ->
          if cell.escaped then Some (j, Esc)
          else
            let entries =
              List.map
                (fun s0 ->
                  let exits =
                    List.sort_uniq String.compare
                      (List.filter_map
                         (fun c ->
                           match c.o with
                           | Param (j', s) when j' = j && s = s0 -> Some c.st
                           | _ -> None)
                         cell.confs)
                  in
                  let errs =
                    match Hashtbl.find_opt errors (di, j) with
                    | None -> []
                    | Some l ->
                      List.filter_map
                        (fun (s, msg, tr) ->
                          if s = s0 then Some (msg, tr) else None)
                        l
                  in
                  { from_ = s0; exits; errs })
                dfas.(di).states
            in
            let identity =
              List.for_all
                (fun e -> e.exits = [ e.from_ ] && e.errs = [])
                entries
            in
            if identity then None else Some (j, Rel entries))
      ids
  end

let merge_action a b =
  match (a, b) with
  | Esc, _ | _, Esc -> Esc
  | Rel ea, Rel eb ->
    Rel
      (List.map
         (fun e ->
           match List.find_opt (fun e' -> e'.from_ = e.from_) eb with
           | None -> e
           | Some e' ->
             {
               e with
               exits = List.sort_uniq String.compare (e.exits @ e'.exits);
               errs =
                 e.errs
                 @ List.filter
                     (fun (m, _) ->
                       not (List.exists (fun (m', _) -> m' = m) e.errs))
                     e'.errs;
             })
         ea)

let action_equal a b =
  match (a, b) with
  | Esc, Esc -> true
  | Rel ea, Rel eb ->
    List.length ea = List.length eb
    && List.for_all2
         (fun x y ->
           x.from_ = y.from_ && x.exits = y.exits
           && List.length x.errs = List.length y.errs)
         ea eb
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SA017: Atomic read-modify-write as separate get/set                  *)
(* ------------------------------------------------------------------ *)

(* Render the target of an Atomic op as a stable key: [x], [d.bottom],
   [s.best].  [None] for computed targets. *)
let rec atomic_key e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (norm (flatten txt)))
  | Pexp_field (e', { txt; _ }) -> (
    match (atomic_key e', List.rev (flatten txt)) with
    | Some base, fld :: _ -> Some (base ^ "." ^ fld)
    | _ -> None)
  | Pexp_constraint (e', _) -> atomic_key e'
  | _ -> None

(* Atomic.get applications inside [e], as (key, line). *)
let atomic_gets e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply (f, (_, tgt) :: _) -> (
            match ident_path f with
            | Some [ "Atomic"; "get" ] -> (
              match atomic_key tgt with
              | Some k -> acc := (k, line_of ex.pexp_loc) :: !acc
              | None -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !acc

let check_atomic_rmw ~emit (d : Callgraph.def) =
  (* var -> (key, get line) for let-bound expressions reading atomics *)
  let carriers : (string, string * int) Hashtbl.t = Hashtbl.create 4 in
  let discharged : (string * string, unit) Hashtbl.t = Hashtbl.create 4 in
  let sets = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match pat_vars [] vb.pvb_pat with
                | [ n ] -> (
                  match atomic_gets vb.pvb_expr with
                  | (k, l) :: _ -> Hashtbl.replace carriers n (k, l)
                  | [] -> ())
                | _ -> ())
              vbs
          | Pexp_apply (f, args) -> (
            match (ident_path f, args) with
            | Some [ "Atomic"; "compare_and_set" ], (_, tgt) :: (_, old) :: _
              -> (
              match atomic_key tgt with
              | Some k ->
                Hashtbl.iter
                  (fun v (k', _) ->
                    if k' = k && mentions_name v old then
                      Hashtbl.replace discharged (v, k) ())
                  carriers
              | None -> ())
            | Some [ "Atomic"; "set" ], (_, tgt) :: (_, v) :: _ -> (
              match atomic_key tgt with
              | Some k -> sets := (k, v, line_of ex.pexp_loc) :: !sets
              | None -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it d.Callgraph.body;
  List.iter
    (fun (k, v, line) ->
      (* Inline: Atomic.set a (... Atomic.get a ...) *)
      match List.find_opt (fun (k', _) -> k' = k) (atomic_gets v) with
      | Some (_, gl) ->
        emit line Finding.SA017
          (Printf.sprintf
             "read-modify-write on Atomic %s as separate get/set — racy \
              between domains; use compare_and_set/fetch_and_add — \
              protocol trace: Atomic.get:%d -> Atomic.set:%d"
             k gl line)
      | None ->
        (* Through a let binding: let v = ... Atomic.get a ... in
           ... Atomic.set a (f v), with no CAS consuming v. *)
        Hashtbl.iter
          (fun var (k', gl) ->
            if
              k' = k
              && mentions_name var v
              && not (Hashtbl.mem discharged (var, k))
            then
              emit line Finding.SA017
                (Printf.sprintf
                   "read-modify-write on Atomic %s as separate get/set \
                    (read bound to %s) — racy between domains; use \
                    compare_and_set/fetch_and_add — protocol trace: \
                    Atomic.get:%d -> Atomic.set:%d"
                   k var gl line))
          carriers)
    (List.rev !sets)

(* ------------------------------------------------------------------ *)
(* Inference: the protocol-summary fixpoint                             *)
(* ------------------------------------------------------------------ *)

type t = summaries

let infer cg =
  let sums : summaries = Hashtbl.create 64 in
  let order = Callgraph.defs_order cg in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 20 do
    changed := false;
    incr rounds;
    List.iter
      (fun q ->
        match Callgraph.find cg q with
        | None -> ()
        | Some d ->
          for di = 0 to n_dfas - 1 do
            if relevant cg sums d di then
              List.iter
                (fun (j, act) ->
                  let key = (q, di, j) in
                  let merged =
                    match Hashtbl.find_opt sums key with
                    | None -> act
                    | Some old -> merge_action old act
                  in
                  match Hashtbl.find_opt sums key with
                  | Some old when action_equal old merged -> ()
                  | _ ->
                    Hashtbl.replace sums key merged;
                    changed := true)
                (summarize_def cg sums d di)
          done)
      order
  done;
  sums

let equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc ->
         acc
         && match Hashtbl.find_opt b k with
            | Some v' -> action_equal v v'
            | None -> false)
       a true

(* ------------------------------------------------------------------ *)
(* The check pass                                                       *)
(* ------------------------------------------------------------------ *)

let check ~cg ~t ~file =
  let out = ref [] in
  let seen : (int * string, unit) Hashtbl.t = Hashtbl.create 8 in
  let emit line rule msg =
    let key = (line, Finding.rule_name rule) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := Finding.v ~file ~line rule msg :: !out
    end
  in
  let defs = Callgraph.defs_in_file cg file in
  (* Value-lifecycle protocols: one walk per definition per DFA, params
     bound at the canonical entry state, creators tracked. *)
  List.iter
    (fun (d : Callgraph.def) ->
      for di = 0 to n_dfas - 1 do
        if relevant cg t d di then begin
          let ctx =
            { cg; file; sums = t; emit; summary_mode = false;
              errors = Hashtbl.create 1 }
          in
          let env, store, _ids = bind_params ~summary_mode:false d di in
          ignore
            (walk ctx ~in_finally:false env store
               (strip_params d.Callgraph.body))
        end
      done;
      check_atomic_rmw ~emit d)
    defs;
  (* SA014 journal discipline: checkpoints are written via tmp+rename. *)
  if Filename.basename file = "journal.ml" then
    List.iter
      (fun (d : Callgraph.def) ->
        (* let-bound names whose rhs mentions a ".tmp" literal *)
        let tmp_names = Hashtbl.create 4 in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun self ex ->
                (match ex.pexp_desc with
                | Pexp_let (_, vbs, _) ->
                  List.iter
                    (fun vb ->
                      match pat_vars [] vb.pvb_pat with
                      | [ n ] when mentions_tmp_literal vb.pvb_expr ->
                        Hashtbl.replace tmp_names n ()
                      | _ -> ())
                    vbs
                | Pexp_apply (f, (_, a0) :: _) -> (
                  match ident_path f with
                  | Some [ ("open_out" | "open_out_bin" | "open_out_gen") ]
                    ->
                    let ok =
                      mentions_tmp_literal a0
                      ||
                      match a0.pexp_desc with
                      | Pexp_ident { txt = Longident.Lident n; _ } ->
                        Hashtbl.mem tmp_names n
                      | _ -> false
                    in
                    if not ok then
                      emit (line_of ex.pexp_loc) Finding.SA014
                        "journal checkpoint opened for writing without \
                         the atomic tmp+rename path — write to \
                         path^\".tmp\" and Sys.rename into place so \
                         readers never observe a torn checkpoint"
                  | _ -> ())
                | _ -> ());
                Ast_iterator.default_iterator.expr self ex);
          }
        in
        it.expr it d.Callgraph.body)
      defs;
  List.sort_uniq Finding.compare !out

(* ------------------------------------------------------------------ *)
(* The --typestate report                                               *)
(* ------------------------------------------------------------------ *)

let report cg t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# Typestate protocol summaries (lib/)\n\
     #\n\
     # Generated by `fp_lint --typestate`.  One line per definition\n\
     # with a non-trivial protocol action on some parameter:\n\
     #   proto(param j: start -> {exits}[, !err])   esc = escapes\n\n";
  List.iter
    (fun q ->
      match Callgraph.find cg q with
      | Some d
        when String.length d.Callgraph.file >= 4
             && String.sub d.Callgraph.file 0 4 = "lib/" ->
        let parts = ref [] in
        for di = n_dfas - 1 downto 0 do
          let dfa = dfas.(di) in
          let params = ref [] in
          for j = List.length d.Callgraph.params - 1 downto 0 do
            match Hashtbl.find_opt t (q, di, j) with
            | None -> ()
            | Some Esc ->
              params := Printf.sprintf "param %d: esc" j :: !params
            | Some (Rel entries) ->
              let one e =
                Printf.sprintf "%s -> {%s}%s" e.from_
                  (String.concat "," e.exits)
                  (if e.errs = [] then "" else ", !err")
              in
              let shown =
                List.filter
                  (fun e -> e.exits <> [ e.from_ ] || e.errs <> [])
                  entries
              in
              if shown <> [] then
                params :=
                  Printf.sprintf "param %d: %s" j
                    (String.concat "; " (List.map one shown))
                  :: !params
          done;
          if !params <> [] then
            parts :=
              Printf.sprintf "%s(%s)" dfa.pname
                (String.concat "; " !params)
              :: !parts
        done;
        if !parts <> [] then
          Buffer.add_string buf
            (Printf.sprintf "- %s: %s\n" q (String.concat "  " !parts))
      | _ -> ())
    (Callgraph.defs_order cg);
  Buffer.contents buf
