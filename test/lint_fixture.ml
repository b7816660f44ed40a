(* In-process typechecking for the analyzer's fixtures: a stdlib-only
   source snippet becomes a typed structure and is loaded as [file]'s
   unit, the same facts [Lint.Deep.load_cmt] gets from a compiled one. *)

let initialized = ref false

let load_source facts ~file source =
  if not !initialized then begin
    Compmisc.init_path ();
    (* fixtures are deliberately sloppy: unused stubs and arguments *)
    ignore (Warnings.parse_options false "-a");
    initialized := true
  end;
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let ast = Parse.implementation lexbuf in
  let tstr, _, _, _, _ =
    Typemod.type_structure (Compmisc.initial_env ()) ast
  in
  let unit_name =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  in
  Lint.Deep.load_structure facts ~unit_name ~file tstr

let load ~file source =
  let facts = Lint.Deep.create () in
  load_source facts ~file source;
  facts
