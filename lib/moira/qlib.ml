open Relation

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let int_arg s =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error Mr_err.integer

let bool_arg s =
  match int_arg s with
  | Ok i -> Ok (i <> 0)
  | Error _ -> Error Mr_err.integer

let trilean_arg s =
  match String.uppercase_ascii (String.trim s) with
  | "TRUE" -> Ok `True
  | "FALSE" -> Ok `False
  | "DONTCARE" -> Ok `Dontcare
  | _ -> Error Mr_err.typ

let bool_str b = if b then "1" else "0"

let name_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         c > ' ' && c < '\x7f' && c <> ':' && c <> '*' && c <> '?')
       s

let check_name s = if name_ok s then Ok () else Error Mr_err.bad_char

(* Resolve the column offsets once; the returned closure projects each
   row without per-row name lookups (pairs with the compiled plans in
   [Relation.Plan] for multi-row retrievals). *)
let projector tbl cols =
  let schema = Table.schema tbl in
  let idx = List.map (Schema.index_of schema) cols in
  fun (row : Value.t array) -> List.map (fun i -> Value.to_string row.(i)) idx

let project tbl cols row = projector tbl cols row

let rows_or_no_match = function
  | [] -> Error Mr_err.no_match
  | rows -> Ok rows

let exactly_one ~err = function
  | [ (_, row) ] -> Ok row
  | _ -> Error err

let stamp_fields (ctx : Query.ctx) ?(prefix = "") () =
  let who = if ctx.caller = "" then "(direct)" else ctx.caller in
  Mdb.stamp ctx.mdb ~who ~client:ctx.client ~prefix

let set c s = (c, Value.Str s)
let seti c i = (c, Value.Int i)
let setb c b = (c, Value.Bool b)

let caller_id (ctx : Query.ctx) =
  if ctx.caller = "" then None else Lookup.user_id ctx.mdb ctx.caller

let caller_is (ctx : Query.ctx) login = ctx.caller <> "" && ctx.caller = login
