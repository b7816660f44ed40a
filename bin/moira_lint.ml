(* moira_lint — static analysis gate ([Lint.Deep_moira]).

   Loads the [.cmt] typed ASTs of lib/ bin/ test/ bench/, plus
   examples/ and e2ebench/ as reference roots only (no finding is
   reported in them), and runs every rule: per-definition checks,
   wall-clock / global-random / unsorted-fold reach with call chains,
   [dead-def] (a lib/ definition nothing outside lib/ reaches), the
   static lock-order graph cross-checked against a simulated chaos
   day's runtime sanitizer, and protocol exhaustiveness.  Exits nonzero
   listing file:line:rule on any finding.  Run from the repo root after
   [dune build @check].
   [--json PATH] also writes the machine-readable report; [--no-chaos]
   skips the simulated day (faster, but the soundness cross-check then
   trivially passes). *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec json_of = function
    | "--json" :: p :: _ -> Some p
    | _ :: rest -> json_of rest
    | [] -> None
  in
  let chaos = not (List.mem "--no-chaos" args) in
  if not (Sys.file_exists "_build/default") then begin
    prerr_endline
      "moira_lint: no _build/default (run from the repo root after `dune \
       build @check`)";
    exit 2
  end;
  let r = Lint.Deep_moira.run ~chaos () in
  (match json_of args with
  | Some path ->
      let oc = open_out path in
      output_string oc r.Lint.Deep_moira.r_json;
      close_out oc
  | None -> ());
  let edges (a, b) = a ^ " -> " ^ b in
  Printf.printf
    "moira_lint: %d definitions, %d entry points\n\
     static lock-order graph: %s\n\
     observed at runtime:     %s\n"
    r.Lint.Deep_moira.r_functions r.Lint.Deep_moira.r_entries
    (match r.Lint.Deep_moira.r_static_edges with
    | [] -> "(empty)"
    | es -> String.concat ", " (List.map edges es))
    (match r.Lint.Deep_moira.r_observed_edges with
    | [] -> if chaos then "(none)" else "(chaos day skipped)"
    | es -> String.concat ", " (List.map edges es));
  match r.Lint.Deep_moira.r_findings with
  | [] -> Printf.printf "moira_lint: clean\n"
  | fs ->
      List.iter (fun f -> print_endline (Lint.Deep.pp_finding f)) fs;
      Printf.printf "moira_lint: %d finding(s)\n" (List.length fs);
      exit 1
