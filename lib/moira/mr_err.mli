(** The Moira error codes of paper section 7.1, registered as the com_err
    table ["mr"].  Code [0] ([success]) means no error. *)

val table : Comerr.Com_err.table
(** The registered table. *)

(** {1 General errors (any query)} *)

val arg_too_long : int
val args : int
val deadlock : int
val ingres_err : int
val internal : int
val no_handle : int
val no_mem : int
val perm : int

(** {1 Retrieval} *)

val no_match : int
val more_data : int
(** Per-tuple continuation marker in the protocol (section 5.3). *)

(** {1 Add / update} *)

val bad_char : int
val exists : int
val integer : int
val no_id : int
val not_unique : int

(** {1 Delete} *)

val in_use : int

(** {1 Query-specific} *)

val ace : int
val bad_class : int
val bad_group : int
val cluster : int
val date : int
val filesys : int
val filesys_exists : int
val filesys_access : int
val fstype : int
val list : int
val machine : int
val nfs : int
val nfsphys : int
val no_filesys : int
val pobox : int
val service : int
val typ : int
(** MR_TYPE "Invalid type". *)

val user : int
val wildcard : int

(** {1 Application library / connection} *)

val not_connected : int
val already_connected : int
val aborted : int
val version_skew : int
val cant_connect : int

(** {1 DCM / update protocol} *)

val no_change : int
(** Generator found nothing changed; data files not rebuilt (section 5.7.1). *)

val dcm_disabled : int
val update_checksum : int
val update_timeout : int
val update_script : int
val host_unreachable : int
val in_progress : int

(** {1 Replication} *)

val read_only_replica : int
(** A write query reached a read-only replica; retry against the
    primary. *)

val replica_stale : int
(** The replica's applied journal sequence is behind the client's
    high-water mark; reading here would lose read-your-writes. *)
