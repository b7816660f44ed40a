open Relation

let canon_host s = String.uppercase_ascii (String.trim s)

let one_int mdb tbl pred col =
  match Plan.select_one (Mdb.table mdb tbl) pred with
  | Some (_, row) -> Some (Table.field (Mdb.table mdb tbl) row col)
  | None -> None

let user_id mdb login =
  Option.map Value.int (one_int mdb "users" (Pred.eq_str "login" login)
                          "users_id")

let user_row mdb id =
  Option.map snd
    (Plan.select_one (Mdb.table mdb "users") (Pred.eq_int "users_id" id))

let user_login mdb id =
  Option.map Value.str (one_int mdb "users" (Pred.eq_int "users_id" id)
                          "login")

let machine_id mdb name =
  Option.map Value.int
    (one_int mdb "machine" (Pred.eq_str "name" (canon_host name)) "mach_id")

let machine_name mdb id =
  Option.map Value.str (one_int mdb "machine" (Pred.eq_int "mach_id" id)
                          "name")

let cluster_id mdb name =
  Option.map Value.int (one_int mdb "cluster" (Pred.eq_str "name" name)
                          "clu_id")

let cluster_name mdb id =
  Option.map Value.str (one_int mdb "cluster" (Pred.eq_int "clu_id" id)
                          "name")

let list_id mdb name =
  Option.map Value.int (one_int mdb "list" (Pred.eq_str "name" name)
                          "list_id")

let list_name mdb id =
  Option.map Value.str (one_int mdb "list" (Pred.eq_int "list_id" id) "name")

let list_row mdb id =
  Option.map snd
    (Plan.select_one (Mdb.table mdb "list") (Pred.eq_int "list_id" id))
