open Relation

let acl_contents mdb ~ace_type ~ace_id =
  match ace_type with
  | "NONE" -> Sink.of_string "*.*@*\n"
  | "USER" -> (
      match Moira.Lookup.user_login mdb ace_id with
      | Some login -> Sink.of_string (login ^ "\n")
      | None -> Sink.empty)
  | "LIST" -> Gen_util.sorted_lines (Moira.Acl.expand_users mdb ~list_id:ace_id)
  | _ -> Sink.empty

let generate glue =
  let mdb = Moira.Glue.mdb glue in
  let tbl = Moira.Mdb.table mdb "zephyr" in
  let files =
    Plan.select tbl Pred.True
    |> List.map (fun (_, row) ->
           let cls = Value.str (Table.field tbl row "class") in
           let ace_type = Value.str (Table.field tbl row "xmt_type") in
           let ace_id = Value.int (Table.field tbl row "xmt_id") in
           (cls ^ ".acl", acl_contents mdb ~ace_type ~ace_id))
  in
  { Gen.common = files; per_host = [] }

let generator =
  Gen.monolithic ~service:"ZEPHYR"
    ~watches:
      [
        Gen.watch "zephyr";
        Gen.watch "list";
        Gen.watch ~columns:[ "modtime" ] "users";
      ]
    generate
