(** Typestate / protocol abstract interpretation (rules SA013, SA014, SA016, SA017).

    Protocols are small DFAs — a state set, events keyed on
    module-qualified calls, error transitions — and a flow-sensitive,
    path-insensitive-with-merge walk tracks the abstract state of each
    tracked value (let-bound resources, aliases, tracked parameters)
    through sequencing, branches, loops, [try] and [Fun.protect].  The
    walk is interprocedural through per-function protocol summaries
    computed in the same monotone-fixpoint style as {!Effects}: for
    every definition, parameter and protocol, the summary is the
    relation a call applies to a value passed there (per start state:
    exit states, reachable errors, or "escapes").

    Shipped protocols: SA013 pool lifecycle, SA014 channel/journal
    lifecycle (plus the journal-only atomic tmp+rename check), SA016
    RNG stream discipline after [split]/[split_n], SA017 Atomic
    read-modify-write as separate [get]/[set].  Findings carry DFA-trace witnesses (the event
    sequence reaching the error, each with its line), rendered like the
    {!Effects} witness chains.  DFA tables and the precision envelope
    live in docs/static-analysis.md ("Typestate protocols"). *)

type t
(** Protocol summaries for a whole call graph. *)

val infer : Callgraph.t -> t
(** The monotone fixpoint over {!Callgraph.defs_order}.  Deterministic;
    running it twice on the same graph yields {!equal} results. *)

val equal : t -> t -> bool
(** Summary equality, used by the idempotence test. *)

val check : cg:Callgraph.t -> t:t -> file:string -> Finding.t list
(** All typestate findings for one file of the graph, sorted.  Role
    gating is the caller's job ({!Driver} filters through
    {!Rules.applies}). *)

val report : Callgraph.t -> t -> string
(** The [--typestate] report: one line per [lib/] definition with a
    non-trivial protocol action on some parameter (line-number-free, so
    it is stable under unrelated edits). *)
