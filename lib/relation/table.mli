(** A mutable relation: rows, optional hash indexes, and modification
    statistics (the paper's [tblstats] counters, section 6).

    Rows are read and written by predicate through {!Plan}, which
    compiles a {!Pred.shape} here once ({!compile_shape}) and runs it
    with the [plan_*] executors below; this module itself offers only
    access by rowid, whole-table walks and change tracking. *)

type t

type rowid = int
(** Stable row identifier, unique within a table for its lifetime. *)

type stats = {
  mutable appends : int;  (** Rows inserted since creation/clear. *)
  mutable updates : int;  (** Rows updated. *)
  mutable deletes : int;  (** Rows deleted. *)
  mutable modtime : int;  (** Clock at last modification. *)
  mutable del_time : int;  (** Clock at last deletion (0 if never).  Lets
      change detection see deletions, which leave no row behind to carry
      a modtime. *)
}

val create : ?indexed : string list -> clock:(unit -> int) -> Schema.t -> t
(** [create ~clock schema] makes an empty relation.  [indexed] columns get
    hash indexes consulted by compiled plans (see {!compile_shape}).
    [clock] supplies the current time for the stats' [modtime].

    @raise Not_found if an [indexed] column is not in [schema]. *)

val schema : t -> Schema.t
(** The table's schema. *)

val uid : t -> int
(** A process-unique identity for this table, assigned at {!create}.
    Stable for the table's lifetime; distinct across databases even for
    tables sharing a name.  Lets caches key derived structures (e.g. the
    membership closure) on the table they were computed from. *)

val insert : t -> Value.t array -> rowid
(** Append a row (type-checked against the schema).
    @raise Invalid_argument on arity or type mismatch. *)

val get : t -> rowid -> Value.t array option
(** Fetch one row (a fresh copy) by id. *)

val cardinal : t -> int
(** Current number of rows. *)

val fold : t -> init:'a -> f:('a -> rowid -> Value.t array -> 'a) -> 'a
(** Fold over rows in rowid order. *)

val iter : t -> (rowid -> Value.t array -> unit) -> unit
(** Iterate rows in rowid order without copying them.  The arrays are
    the table's own storage: callers must neither mutate them nor
    change the table during the walk. *)

val stats : t -> stats
(** The live statistics record. *)

val col_upper_bound : t -> string -> int
(** Upper bound on every [Value.Int] ever stored in the named column
    ([min_int] if none yet).  Maintained in O(1) per write and never
    lowered, so for the modtime-style columns the DCM watches it answers
    "could any row's value exceed t0?" without a table scan — possibly
    over-approximating after deletions, which at worst triggers a
    spurious (idempotent) rebuild.
    @raise Not_found if [col] is not a column. *)

val change_cursor : t -> int
(** Position in the table's change log.  Pass to {!changes_since} later
    to learn which rows were touched in between. *)

val changes_since : t -> cursor:int -> rowid list option
(** [changes_since t ~cursor] is [Some ids] — the distinct rowids
    inserted, updated, or deleted since [cursor] was taken, in ascending
    order — or [None] when the bounded log has wrapped (or the table was
    {!clear}ed) and the delta is unknown, in which case the caller must
    fall back to a full scan.  A deleted rowid appears in the delta; its
    row is simply gone from the table. *)

val column_version : t -> string -> int option
(** Monotonic change counter for an indexed column: bumps on every
    insert and delete, and on updates that change that column's value —
    but not on updates that leave it alone.  [None] when the column is
    not indexed.  Callers memoizing a projection of specific columns can
    key it on their versions and survive unrelated-field updates. *)

val clear : t -> unit
(** Remove every row (counts it as deletions in the stats). *)

val field : t -> Value.t array -> string -> Value.t
(** [field t row col] projects a named column out of a tuple of this
    table.  @raise Not_found if [col] is not a column. *)

(** {2 Compiled plans}

    A {!Pred.shape} compiles against a table once — column names resolve
    to offsets, an access path is chosen from the shape — and the
    compiled plan then serves every parameter vector.  The paths:
    - bucket probe for an indexed [S_eq] conjunct, or a case-folded
      bucket probe for a wildcard-free [S_glob_fold]; with several, the
      smallest bucket at run time wins;
    - union of buckets for an [S_or] whose every leaf is probeable;
    - prefix range for an [S_glob] on an indexed string column whose
      pattern starts with literal text: the keys in
      [[prefix, successor)] of the column's sorted bucket keys;
    - full scan otherwise.
    Every path is a superset pre-filter: the whole predicate is still
    evaluated on each candidate row.  Plans stay valid for the table's
    whole lifetime: the index structures they capture are updated in
    place by inserts/updates/deletes and {!clear}, and the sorted and
    case-folded views they consult are rebuilt lazily when the index
    version moves.  Callers use the caching front-end in {!Plan}, which
    also documents the result contracts. *)

type compiled
(** A predicate shape compiled against one table. *)

val compile_shape : t -> Pred.shape -> compiled
(** Compile a shape for this table.  Columns absent from the schema are
    treated as unindexed and raise [Not_found] only when a row is
    actually evaluated, matching {!Pred.eval}. *)

val plan_select : compiled -> Value.t array -> (rowid * Value.t array) list
(** {!Plan.select}, on a compiled plan with its parameter vector. *)

val plan_select_one : compiled -> Value.t array -> (rowid * Value.t array) option
(** {!Plan.select_one}. *)

val plan_count : compiled -> Value.t array -> int
(** {!Plan.count}. *)

val plan_exists : compiled -> Value.t array -> bool
(** Whether any row matches. *)

val plan_update : compiled -> Value.t array -> (Value.t array -> Value.t array) -> int
(** {!Plan.update}. *)

val plan_delete : compiled -> Value.t array -> int
(** {!Plan.delete}. *)

val plan_explain : compiled -> string
(** Access-path description for tests and diagnostics, e.g.
    ["probe(eq(login))"], ["probe(fold(name=\"ab\"))"],
    ["prefix(login,\"jis\")"], ["scan"]. *)

val plan_table : compiled -> t
(** The table the plan was compiled against. *)
