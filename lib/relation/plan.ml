(* Cached compiled plans for the fixed named-query vocabulary.

   The cache is keyed by (table uid, predicate shape): every call of a
   named query with different arguments shares one compiled plan, so the
   steady-state cost of a select is a shape split, one hashtable probe,
   and the plan body — no per-row column-name resolution, no per-call
   path choice.  Invalidation is structural: uids are process-unique,
   schemas are immutable, and the ordered/folded index views a plan
   consults are version-keyed inside the table, so [Table.clear] and
   backup restore need no cache hooks.  The cache is capacity-bounded
   and resets wholesale when full, like the closure and projection
   memos elsewhere. *)

type t = { compiled : Table.compiled; params : Value.t array }

let cache : (int * Pred.shape, Table.compiled) Hashtbl.t = Hashtbl.create 256

(* Hit/miss counters live on the global registry so stats queries and
   benches read the same numbers [cache_stats] reports. *)
let hits = Obs.Counter.make Obs.default "plan.cache.hits"
let misses = Obs.Counter.make Obs.default "plan.cache.misses"
let cache_cap = 1024

let reset_cache () =
  Hashtbl.reset cache;
  Obs.Counter.add hits (-Obs.Counter.get hits);
  Obs.Counter.add misses (-Obs.Counter.get misses)

let cache_stats () =
  (Obs.Counter.get hits, Obs.Counter.get misses, Hashtbl.length cache)

let prepare tbl shape =
  let key = (Table.uid tbl, shape) in
  match Hashtbl.find_opt cache key with
  | Some c when Table.plan_table c == tbl ->
      Obs.Counter.incr hits;
      c
  | _ ->
      Obs.Counter.incr misses;
      let c = Table.compile_shape tbl shape in
      if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
      Hashtbl.replace cache key c;
      c

let compile tbl pred =
  let shape, params = Pred.split pred in
  { compiled = prepare tbl shape; params }

let run_select p = Table.plan_select p.compiled p.params
let run_select_one p = Table.plan_select_one p.compiled p.params
let run_count p = Table.plan_count p.compiled p.params
let run_exists p = Table.plan_exists p.compiled p.params

let select tbl pred = run_select (compile tbl pred)
let select_one tbl pred = run_select_one (compile tbl pred)
let count tbl pred = run_count (compile tbl pred)
let exists tbl pred = run_exists (compile tbl pred)

let update tbl pred f =
  let p = compile tbl pred in
  Table.plan_update p.compiled p.params f

let set_fields tbl pred fields =
  let schema = Table.schema tbl in
  let positions =
    List.map (fun (c, v) -> (Schema.index_of schema c, v)) fields
  in
  update tbl pred (fun row ->
      List.iter (fun (i, v) -> row.(i) <- v) positions;
      row)

let delete tbl pred =
  let p = compile tbl pred in
  Table.plan_delete p.compiled p.params
