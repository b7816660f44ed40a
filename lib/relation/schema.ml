type column = {
  cname : string;
  ctype : Value.ctype;
}

type t = {
  name : string;
  columns : column array;
  positions : (string, int) Hashtbl.t;
}

let make ~name cols =
  if cols = [] then invalid_arg "Schema.make: empty column list";
  let columns = Array.of_list cols in
  let positions = Hashtbl.create (Array.length columns) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem positions c.cname then
        invalid_arg
          (Printf.sprintf "Schema.make: duplicate column %S in %S" c.cname
             name);
      Hashtbl.add positions c.cname i)
    columns;
  { name; columns; positions }

let name t = t.name
let columns t = t.columns
let arity t = Array.length t.columns

let index_of t c =
  match Hashtbl.find_opt t.positions c with
  | Some i -> i
  | None -> raise Not_found

let mem t c = Hashtbl.mem t.positions c

let check_tuple t tuple =
  if Array.length tuple <> arity t then
    invalid_arg
      (Printf.sprintf "%s: tuple arity %d, expected %d" t.name
         (Array.length tuple) (arity t));
  Array.iteri
    (fun i v ->
      let expect = t.columns.(i).ctype in
      let got = Value.ctype_of v in
      (* Bool and Int interconvert freely at the protocol layer; the
         engine stores them as declared. *)
      if got <> expect then
        invalid_arg
          (Printf.sprintf "%s.%s: expected %s, got %s" t.name
             t.columns.(i).cname
             (Value.ctype_name expect)
             (Value.ctype_name got)))
    tuple
