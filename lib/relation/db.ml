type t = {
  clock : unit -> int;
  by_name : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (* reverse registration order *)
}

let create ~clock = { clock; by_name = Hashtbl.create 31; order = [] }
let now t = t.clock ()

let add_table ?indexed t schema =
  let name = Schema.name schema in
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Db.add_table: %S already exists" name);
  let table = Table.create ?indexed ~clock:t.clock schema in
  Hashtbl.replace t.by_name name table;
  t.order <- name :: t.order;
  table

let table t name =
  match Hashtbl.find_opt t.by_name name with
  | Some tbl -> tbl
  | None -> raise Not_found

let table_opt t name = Hashtbl.find_opt t.by_name name
let table_names t = List.rev t.order
let tables t = List.map (fun n -> (n, table t n)) (table_names t)
