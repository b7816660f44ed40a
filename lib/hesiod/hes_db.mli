(** Parsing and in-memory form of the Hesiod BIND data files.

    Moira generates eleven [*.db] files per Hesiod server (paper section
    5.8.2).  Each non-comment line is either

    {v name HS UNSPECA "data" v}

    or

    {v name HS CNAME target v}

    where [name] is the dotted hesiod key (e.g. [babette.passwd]). *)

type record =
  | Unspeca of string  (** Literal record data. *)
  | Cname of string  (** Alias to another key. *)

type t
(** A loaded database: key to records (a key may carry several
    UNSPECA records, e.g. sloc entries). *)

val empty : t
(** No entries. *)

val parse : string -> t
(** Parse one file's contents.  Lines starting with [;] and blank lines
    are ignored; malformed lines are skipped (BIND is similarly
    forgiving). *)

val lookup : t -> string -> record list
(** Raw records for a key ([] if absent). *)

val lookup_stacked : t list -> string -> record list
(** Raw records for a key across a stack of databases in order: equal
    to a {!lookup} in their union (later files' records after earlier
    ones), without building it. *)

val resolve_stacked : t list -> name:string -> ty:string -> string list
(** {!resolve} over a stack of per-file databases (see
    {!lookup_stacked}). *)

val resolve : t -> name:string -> ty:string -> string list
(** Hesiod resolution of [name.ty]: follow CNAME chains (bounded, cycle
    safe) and return all UNSPECA data strings, in file order. *)

val format_unspeca : key:string -> string -> string
(** Render one UNSPECA line as the DCM generators emit it. *)

val format_cname : key:string -> string -> string
(** Render one CNAME line. *)

val size : t -> int
(** Number of keys. *)
