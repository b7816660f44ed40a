(** The static analyzer behind [moira_lint], over [.cmt] typed ASTs:
    per-definition rules, effect propagation along the whole-program
    call graph, the static lock-order graph, and protocol
    exhaustiveness.  See the header of [deep.ml] for the rules and the
    suppression syntax; [Deep_moira] binds it to this repository's
    tree. *)

type effect_ =
  | WallClock  (** [Unix.gettimeofday]/[Sys.time]/Gc measurement reads *)
  | GlobalRandom  (** the global [Random] module *)
  | UnorderedIter
      (** a [Hashtbl.fold]/[iter] accumulating order-sensitively with no
          sort in the same definition *)

val effect_name : effect_ -> string
(** The rule id an effect is reported under ([UnorderedIter] ->
    ["unsorted-fold"]). *)

(** Per-definition facts extracted from the typedtree.  One record per
    toplevel [let] or expression (nested lets are attributed to their
    enclosing toplevel binding) and per functor application; [fn_name]
    is fully qualified (["Dcm.Manager.host_phase"]). *)
type fn = {
  fn_name : string;
  fn_unit : string;
  fn_file : string;
  fn_line : int;
  mutable fn_refs : (string * int) list;
  mutable fn_strings : (string * int) list;
  mutable fn_direct : (effect_ * int) list;
  mutable fn_acquires : (string * int) list;
  mutable fn_code_idx : int option;
  mutable fn_sites : (string * int * string) list;
      (** per-definition rule findings: rule id, line, message *)
}

type facts = (string, fn) Hashtbl.t

val create : unit -> facts
val add_fn : facts -> fn -> unit

val make_fn :
  name:string -> unit_name:string -> file:string -> line:int -> fn
(** A blank fact record (tests hand-build graphs with it). *)

val load_cmt : facts -> string -> unit
(** Load one [.cmt] file's implementation (interfaces are skipped). *)

val load_structure :
  facts -> unit_name:string -> file:string -> Typedtree.structure -> unit
(** Load a typechecked structure as unit [unit_name] of [file] (test
    fixtures typecheck snippets in-process and load them here). *)

val norm_path : string -> string
(** A referenced path as facts name it: ["Stdlib.List.sort"] ->
    ["List.sort"], ["Dcm__Manager.run"] -> ["Dcm.Manager.run"], and a
    wrapped library's alias-module path ["Lint__.Deep.create"] ->
    ["Lint.Deep.create"]. *)

val restrict : facts -> (fn -> bool) -> facts
(** The selected definitions as their own fact table. *)

val callees : facts -> fn -> string list
(** The loaded definitions a definition references, sorted.  References
    are recorded through the unit's scope (submodules, module aliases,
    binding operators, functor applications), so each names its target
    fully qualified. *)

val refs_to : facts -> string -> string list

(** Every definition, ordered by name (deterministic iteration). *)
val sorted_fns : facts -> fn list
val entry_points : facts -> string list
(** Definitions no other definition in the graph references. *)

type finding = {
  f_rule : string;
  f_file : string;
  f_line : int;
  f_msg : string;
  f_chain : string list;
}

val pp_finding : finding -> string

val site_findings : facts -> finding list
(** The per-definition rules ([obj-magic], [swallow-exn],
    [lock-protect], [schema-ref], [printf-in-lib]) at their sites. *)

val effect_findings : facts -> finding list
(** [wall-clock], [global-random], [unsorted-fold]: one finding per
    direct site, carrying the shortest call chain from an entry point
    (just the definition when only a caller-less cycle reaches it). *)

val dead_findings : facts -> root:(fn -> bool) -> finding list
(** [dead-def]: every definition not reachable along resolved call
    edges from a root — a definition [root] selects, or a toplevel
    effect ([let () = ...]).  Error-table bindings ([let x = code <idx>])
    are exempt: the wire table must stay gap-free. *)

val gate : sources:(string * string) list -> finding list -> finding list
(** Every finding's last step: drop those outside the rule's file scope
    or covered by a [lint: allow], then add [bad-allow]/[unused-allow]
    for the annotations in [sources] ([(file, text)] of every analyzed
    file).  Sorted. *)

type lock_edge = {
  le_from : string;
  le_to : string;
  le_why : string;
  le_file : string;
  le_line : int;
}

val lock_edges : facts -> lock_edge list
(** The static lock-order graph over key classes: an edge A -> B
    wherever a definition acquires class A and later (same definition
    or through a call at a later line) acquires class B.  Deliberately
    an over-approximation — soundness (containing every runtime edge)
    is what the sanitizer cross-check relies on. *)

val lock_findings : facts -> finding list
(** [lock-order]: acquires whose key string cannot be classified
    statically, plus any cycle in {!lock_edges}. *)

val doc_has_cell : string -> string -> bool
(** Whether a markdown table in the given text has a cell equal to the
    value (cells are [|]-split and trimmed). *)

val proto_op_findings :
  facts -> doc:string -> (string * int) list -> finding list
(** [proto-exhaustive] for numeric opcodes [(qualified name, value)]:
    each must be referenced from two distinct definitions (sender +
    dispatch arm) and appear as a cell in [doc]. *)

val proto_verb_findings :
  facts -> doc:string -> unit_name:string -> string list -> finding list
(** Same for string verbs, matched as string literals inside
    [unit_name]'s definitions. *)

val err_codes : facts -> unit_name:string -> (string * int) list
(** The [let name = code <idx>] bindings of an error-table unit. *)

val proto_err_findings :
  facts ->
  doc:string ->
  unit_name:string ->
  size:int ->
  unit ->
  finding list
(** Error-code coverage: indices unique, in range, gap-free up to
    [size], and each present in [doc]'s table. *)

val json_str : string -> string

val report_json :
  findings:finding list -> info:(string * string) list -> string
(** One JSON object: the findings array plus caller-supplied
    pre-rendered [info] fields. *)
