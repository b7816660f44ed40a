(** Relation schemas: ordered, named, typed columns. *)

type column = {
  cname : string;  (** Column name, unique within a schema. *)
  ctype : Value.ctype;  (** Column type. *)
}

type t

val make : name:string -> column list -> t
(** [make ~name cols] builds a schema for relation [name].

    @raise Invalid_argument on duplicate column names or an empty column
    list. *)

val name : t -> string
(** Relation name. *)

val columns : t -> column array
(** The columns, in declaration order. *)

val arity : t -> int
(** Number of columns. *)

val index_of : t -> string -> int
(** [index_of t c] is the position of column [c].
    @raise Not_found if no such column. *)

val mem : t -> string -> bool
(** Whether the schema has a column of that name. *)

val check_tuple : t -> Value.t array -> unit
(** Validate a tuple's arity and per-column types.
    @raise Invalid_argument describing the first mismatch. *)
