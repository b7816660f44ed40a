(** Opt-in runtime lock-discipline sanitizer (lockset-style).

    Detects: double-acquire, release-without-ownership, locks still held
    at the end of a run, and writes to a managed host's durable files
    while nobody holds that host's lock.  Violations are counted under
    [sanitizer.*] in the [Obs] registry and detailed on the
    ["sanitizer"] log channel.  Off by default; [Workload.Testbed]
    installs it when [MOIRA_SANITIZE=1] (or [?sanitize:true]). *)

type t

val env_enabled : unit -> bool
(** [MOIRA_SANITIZE] is ["1"], ["true"] or ["yes"]. *)

val install : obs:Obs.t -> Relation.Lock.t -> t
(** Hook the lock manager's monitor and register the counters. *)

val guard_host :
  t -> machine:string -> dirs:string list -> Netsim.Vfs.t -> unit
(** Install a write hook on one managed host's filesystem: any mutation
    under [dirs] (staging paths excepted) while no [host:*/machine] lock
    is held counts as [sanitizer.unlocked_write]. *)

val check_quiescent : t -> string list
(** Keys still locked right now — each one bumps
    [sanitizer.locks_held_at_end].  Call when the run should be idle. *)

val violations : t -> int
(** Sum of all four violation counters; tests assert 0. *)

val key_class : string -> string
(** The ordering class of a lock key: the prefix before [':'] —
    ["service:zephyr"] is class ["service"].  Order discipline is per
    class; instances within a class are never nested. *)

val observed_lock_edges : t -> (string * string) list
(** Every (held-class, acquired-class) pair witnessed on a successful
    acquire, sorted and deduplicated.  [moira_lint] checks this
    set is a subset of the statically derived lock-order graph: an
    observed edge the static graph lacks means the static analysis is
    unsound; a non-empty observation against an empty static graph
    means it is vacuous. *)
