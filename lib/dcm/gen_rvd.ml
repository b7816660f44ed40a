open Relation

let generate glue =
  let mdb = Moira.Glue.mdb glue in
  let filesys = Moira.Mdb.table mdb "filesys" in
  let by_machine = Hashtbl.create 7 in
  List.iter
    (fun (_, row) ->
      let mach_id = Value.int (Table.field filesys row "mach_id") in
      match Moira.Lookup.machine_name mdb mach_id with
      | None -> ()
      | Some machine ->
          let pack = Value.str (Table.field filesys row "name") in
          let access = Value.str (Table.field filesys row "access") in
          let line = Printf.sprintf "%s %s\n" pack access in
          let existing =
            Option.value (Hashtbl.find_opt by_machine machine) ~default:[]
          in
          Hashtbl.replace by_machine machine (line :: existing))
    (Plan.select filesys (Pred.eq_str "type" "RVD"));
  let per_host =
    Hashtbl.fold
      (fun machine lines acc ->
        let doc =
          Gen_util.emit (fun w ->
              List.iter (Sink.add_string w) (List.sort compare lines))
        in
        (machine, [ ("rvddb", doc) ]) :: acc)
      by_machine []
  in
  { Gen.common = []; per_host }

let generator =
  Gen.monolithic ~service:"RVD"
    ~watches:[ Gen.watch "filesys"; Gen.watch "machine" ]
    generate
