(* Process-wide hash-consing pool for row atoms.

   Campus data is massively repetitive: the same logins, machine names,
   list names, types and statuses recur across users / members / hostaccess
   / serverhosts rows, and again in every journal entry.  Storing one
   canonical heap string (and one canonical [Value.t] box) per distinct
   atom makes a row cost its array spine plus shared pointers instead of
   a private copy of every cell.  [Table.insert]/[Plan.update] map rows
   through {!row}, so the pool is populated as a side effect of normal
   writes — including [Backup] restore and [Journal] replay, which both
   funnel through insert.

   The pool is process-global on purpose: tables from different databases
   (live db vs. a restore target, or the bench's per-tier builds) share
   atoms.  It only ever grows. *)

type stats = {
  mutable distinct : int;  (* distinct strings currently pooled *)
  mutable bytes : int;  (* total bytes held by pooled strings *)
  mutable hits : int;  (* share/value calls answered from the pool *)
  mutable misses : int;  (* calls that added a new string *)
}

let stats = { distinct = 0; bytes = 0; hits = 0; misses = 0 }

(* One slot per distinct string: its dense id and its canonical [Str]
   box.  The box holds the canonical string, so [share] and [value] are
   the same hashtable probe. *)
type slot = { id : int; box : Value.t }

let table : (string, slot) Hashtbl.t = Hashtbl.create 4096

(* id -> canonical string, growable, slot number = id *)
let rev = ref (Array.make 1024 "")
let next = ref 0

let slot_of s =
  match Hashtbl.find_opt table s with
  | Some slot ->
      stats.hits <- stats.hits + 1;
      slot
  | None ->
      let id = !next in
      next := id + 1;
      if id >= Array.length !rev then begin
        let bigger = Array.make (2 * Array.length !rev) "" in
        Array.blit !rev 0 bigger 0 (Array.length !rev);
        rev := bigger
      end;
      !rev.(id) <- s;
      let slot = { id; box = Value.Str s } in
      Hashtbl.add table s slot;
      stats.misses <- stats.misses + 1;
      stats.distinct <- stats.distinct + 1;
      stats.bytes <- stats.bytes + String.length s;
      slot

let share s =
  match (slot_of s).box with Value.Str c -> c | _ -> assert false

let id s = (slot_of s).id
let of_id i = if i >= 0 && i < !next then Some !rev.(i) else None

(* Canonical boxes for the immediate-ish cases.  Small non-negative ints
   (uids, counts, flags, clocks early in a run) share preallocated boxes;
   bigger ints keep their caller-allocated box — returning [v] unchanged
   allocates nothing. *)
let small_int_limit = 16_384
let small_ints = Array.init small_int_limit (fun i -> Value.Int i)
let true_box = Value.Bool true
let false_box = Value.Bool false

let value v =
  match v with
  | Value.Str s -> (slot_of s).box
  | Value.Int i -> if i >= 0 && i < small_int_limit then small_ints.(i) else v
  | Value.Bool b -> if b then true_box else false_box

let row r = Array.map value r
