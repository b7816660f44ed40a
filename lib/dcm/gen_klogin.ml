open Relation

let generate glue =
  let mdb = Moira.Glue.mdb glue in
  let tbl = Moira.Mdb.table mdb "hostaccess" in
  let per_host =
    Plan.select tbl Pred.True
    |> List.filter_map (fun (_, row) ->
           let mach_id = Value.int (Table.field tbl row "mach_id") in
           match Moira.Lookup.machine_name mdb mach_id with
           | None -> None
           | Some machine ->
               let principals =
                 match Value.str (Table.field tbl row "acl_type") with
                 | "USER" -> (
                     match
                       Moira.Lookup.user_login mdb
                         (Value.int (Table.field tbl row "acl_id"))
                     with
                     | Some login -> [ login ]
                     | None -> [])
                 | "LIST" ->
                     Moira.Acl.expand_users mdb
                       ~list_id:(Value.int (Table.field tbl row "acl_id"))
                 | _ -> []
               in
               Some (machine, [ (".klogin", Gen_util.sorted_lines principals) ]))
  in
  { Gen.common = []; per_host }

let generator =
  Gen.monolithic ~service:"KLOGIN"
    ~watches:
      [
        Gen.watch "hostaccess"; Gen.watch "list";
        Gen.watch ~columns:[ "modtime" ] "users";
      ]
    generate
