(** Access control (paper sections 5.5 and 6).

    Rights hang off the data: every protected object carries an *access
    control entity* (ACE) — a [USER], a [LIST], or [NONE] — and every
    query handle appears in the capacls relation pointing at the list of
    principals allowed to run it.  List membership is recursive: a user on
    a sub-list of an ACE list is on the ACE. *)

type ace = {
  ace_type : string;  (** "USER", "LIST" or "NONE". *)
  ace_id : int;  (** users_id, list_id, or ignored for NONE. *)
}

val resolve_ace :
  Mdb.t -> ace_type:string -> ace_name:string -> (ace, int) result
(** Turn the (type, name) pair clients speak into an {!ace}.
    [Error Mr_err.ace] if the type is unknown or the name does not
    resolve. *)

val ace_name : Mdb.t -> ace -> string
(** Render an ACE back to the name form ("NONE" for type NONE, a login or
    list name otherwise; dangling ids render as ["#<id>"].) *)

val is_member_of_list :
  Mdb.t -> list_id:int -> mtype:string -> mid:int -> bool
(** Direct membership test on one list. *)

val user_in_list : Mdb.t -> list_id:int -> users_id:int -> bool
(** Recursive membership: [users_id] is on the list or on any reachable
    sub-list (cycle-safe). *)

val list_in_list : Mdb.t -> outer:int -> inner:int -> bool
(** Recursive test that list [inner] appears under list [outer]. *)

val user_on_ace : Mdb.t -> ace -> users_id:int -> bool
(** Whether the user satisfies the ACE (NONE satisfies nobody). *)

val login_on_ace : Mdb.t -> ace -> login:string -> bool
(** {!user_on_ace} starting from a login name. *)

val set_capacl : Mdb.t -> query:string -> tag:string -> list_id:int -> unit
(** Point the capability ACL for a query handle at a list. *)

val query_allowed : Mdb.t -> query:string -> login:string -> bool
(** Whether [login] may run [query] according to capacls (recursively
    through the ACL list).  A query with no capacls row is allowed to
    nobody (privileged/direct callers bypass this check). *)

val expand_users : Mdb.t -> list_id:int -> string list
(** Every login reachable from the list through any chain of sub-lists
    (cycle-safe), sorted and deduplicated — what the DCM generators use
    to flatten ACL lists into files ("recursive lists will be
    expanded").  Served from the memoized {!Closure}. *)

val expand_users_naive : Mdb.t -> list_id:int -> string list
(** Reference implementation of {!expand_users}: recursive descent, one
    select per list visited.  The property tests and benchmarks compare
    the closure against it. *)

val containing_lists : Mdb.t -> mtype:string -> mid:int -> int list
(** Every list that contains the member — directly, or through any chain
    of sub-lists (the fixpoint used by the R-prefixed member types RUSER
    / RLIST / RSTRING and by recursive ACE searches).  Sorted.  Served
    from the memoized {!Closure}. *)

val containing_lists_naive : Mdb.t -> mtype:string -> mid:int -> int list
(** Reference implementation of {!containing_lists}: upward BFS, one
    select per list visited. *)
