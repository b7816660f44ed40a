(** Entity resolution helpers shared by the query catalogue, the access
    control layer and the DCM generators: translating between the names
    clients speak and the internal database ids rows reference. *)

val user_id : Mdb.t -> string -> int option
(** users_id for an exact login name. *)

val user_login : Mdb.t -> int -> string option
(** Login name for a users_id. *)

val user_row : Mdb.t -> int -> Relation.Value.t array option
(** Full users row for a users_id. *)

val machine_id : Mdb.t -> string -> int option
(** mach_id for a hostname (machine names are case-insensitive and stored
    upper-case). *)

val machine_name : Mdb.t -> int -> string option
(** Canonical (upper-case) hostname for a mach_id. *)

val cluster_id : Mdb.t -> string -> int option
(** clu_id for a cluster name (case-sensitive). *)

val cluster_name : Mdb.t -> int -> string option
(** Name for a clu_id. *)

val list_id : Mdb.t -> string -> int option
(** list_id for an exact list name. *)

val list_name : Mdb.t -> int -> string option
(** Name for a list_id. *)

val list_row : Mdb.t -> int -> Relation.Value.t array option
(** Full list row for a list_id. *)

val canon_host : string -> string
(** Canonicalize a hostname: trim and upper-case (section 5.6.3's
    "canonicalize hostname"). *)
