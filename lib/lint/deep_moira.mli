(** The {!Deep} analyzer bound to this repository: [.cmt] discovery
    under the dune build dir, the wire-protocol model (opcode values
    read off the linked libraries), PROTOCOL.md section lookup, and the
    simulated-chaos-day sanitizer cross-check.  Driven by
    [bin/moira_lint.ml]. *)

type report = {
  r_findings : Deep.finding list;  (** everything that should gate CI *)
  r_functions : int;  (** definitions loaded into the fact table *)
  r_entries : int;  (** call-graph entry points *)
  r_static_edges : (string * string) list;
      (** the static lock-order graph, as (held, acquired) classes *)
  r_observed_edges : (string * string) list;
      (** what the runtime sanitizer witnessed during the chaos day *)
  r_unreferenced_errs : string list;
      (** error-code bindings nothing references (informational) *)
  r_json : string;  (** the machine-readable report *)
}

val cmt_files : string -> string list
(** Every [.cmt] under a directory, in sorted order. *)

val run :
  ?build_dir:string ->
  ?src_prefix:string ->
  ?chaos:bool ->
  unit ->
  report
(** Analyze [lib/], [bin/], [test/] and [bench/], with [examples/] and
    [e2ebench/] loaded as [dead-def] roots only (no finding is reported
    in them); the lock-order graph and its cross-check cover [lib/] and
    [bin/] only.  Protocol tables are read from [PROTOCOL.md].  [build_dir]
    (default ["_build/default"]) must hold [.cmt] artifacts — build
    with [dune build @check] first.
    [src_prefix] is prepended to source paths when reading allow
    comments (tests run from inside the sandbox).  [chaos:false] skips
    the simulated day (the cross-check then trivially passes). *)

val observed_edges_chaos : unit -> (string * string) list
(** Just the chaos-day run (exposed for the agreement test). *)

val section : string -> string -> string
(** [section md title]: the markdown section whose ["## "] heading
    contains [title] (case-insensitive), heading included. *)

val ops : unit -> (string * int) list
(** The opcode model: qualified binding name, runtime value. *)

val verbs : string list
(** The replication protocol's string verbs. *)
