(* Deep_moira: the [Deep] engine bound to this repository.

   Knows where dune leaves the [.cmt] files, which opcodes / verbs /
   error tables make up the wire protocol (read off the linked
   libraries themselves, so the model can never drift from the code),
   which PROTOCOL.md sections document them, and how to spin the
   simulated chaos day whose sanitizer-observed lock acquisitions
   cross-check the static lock-order graph.  The driver is
   [bin/moira_lint.ml]. *)

(* ---------------- .cmt discovery ---------------- *)

let rec cmt_files path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun e -> cmt_files (Filename.concat path e))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

(* The system proper, the trees that exercise it, and the trees loaded
   only for the references they make.  Every rule runs over the first
   four; [examples/] and [e2ebench/] (whose code is not held to the
   rules) just keep what they call alive for [dead-def].  The lock-order
   graph and its sanitizer cross-check cover the system only: test code
   contends for locks on purpose, and its edges would let the "observed
   within static" check pass on edges the system itself never takes. *)
let system_roots = [ "lib"; "bin" ]
let checked_roots = system_roots @ [ "test"; "bench" ]
let reference_roots = [ "examples"; "e2ebench" ]

let under roots file =
  List.exists (fun r -> String.starts_with ~prefix:(r ^ "/") file) roots

let in_system (fn : Deep.fn) = under system_roots fn.Deep.fn_file

(* ---------------- protocol model ---------------- *)

(* Opcode values come from the linked libraries, names from the
   corresponding facts — the model cannot drift from the code. *)
let ops () =
  [
    ("Gdb.Wire.op_open", Gdb.Wire.op_open);
    ("Gdb.Wire.op_close", Gdb.Wire.op_close);
    ("Moira.Protocol.op_noop", Moira.Protocol.op_noop);
    ("Moira.Protocol.op_auth", Moira.Protocol.op_auth);
    ("Moira.Protocol.op_query", Moira.Protocol.op_query);
    ("Moira.Protocol.op_access", Moira.Protocol.op_access);
    ("Moira.Protocol.op_trigger_dcm", Moira.Protocol.op_trigger_dcm);
    ("Moira.Protocol.op_query2", Moira.Protocol.op_query2);
    ("Dcm.Update.op_xfer", Dcm.Update.op_xfer);
    ("Dcm.Update.op_script", Dcm.Update.op_script);
    ("Dcm.Update.op_flush", Dcm.Update.op_flush);
    ("Dcm.Update.op_exec", Dcm.Update.op_exec);
    ("Dcm.Update.op_manifest", Dcm.Update.op_manifest);
    ("Dcm.Update.op_delta", Dcm.Update.op_delta);
    ("Userreg.op_verify", Userreg.op_verify);
    ("Userreg.op_grab", Userreg.op_grab);
    ("Userreg.op_setpw", Userreg.op_setpw);
  ]

let verbs = [ "SUBSCRIBE"; "FETCH"; "HEARTBEAT"; "SNAPSHOT" ]

(* ---------------- PROTOCOL.md sections ---------------- *)

let contains_ci hay needle =
  let low = String.lowercase_ascii hay in
  let n = String.lowercase_ascii needle in
  let nh = String.length low and nn = String.length n in
  let rec go i = i + nn <= nh && (String.sub low i nn = n || go (i + 1)) in
  go 0

(* Text of the section whose "## " heading contains [title], up to the
   next "## " heading — so op numbers are only looked up in their own
   tables (error index 16 must not be satisfied by opcode 16's row). *)
let section md title =
  let lines = String.split_on_char '\n' md in
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:"## " l && contains_ci l title then
          take rest [ l ]
        else skip rest
  and take rest acc =
    match rest with
    | [] -> List.rev acc
    | l :: _ when String.starts_with ~prefix:"## " l -> List.rev acc
    | l :: rest -> take rest (l :: acc)
  in
  String.concat "\n" (skip lines)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ -> None

(* ---------------- chaos-day cross-check ---------------- *)

(* One simulated day with the runtime sanitizer on: boot the full
   testbed, commit a user change at t+9h so the DCM generates and
   pushes (service and host locks both get exercised), run 26 hours,
   and read back the (held-class -> acquired-class) pairs the monitor
   witnessed. *)
let observed_edges_chaos () =
  let open Workload in
  let tb = Testbed.create ~sanitize:true () in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine
       ~at:(Sim.Engine.now tb.Testbed.engine + (9 * 3600 * 1000))
       "deep-lint user change"
       (fun () ->
         ignore
           (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
              [ tb.Testbed.built.Population.logins.(0); "/bin/deep" ])));
  Testbed.run_hours tb 26;
  match tb.Testbed.sanitizer with
  | Some s -> Dcm.Sanitizer.observed_lock_edges s
  | None -> []

(* Observed must be a subset of static (else the static graph is
   unsound), and static must not be empty while locks demonstrably
   nest at runtime (else it is vacuous). *)
let cross_check_findings ~static ~observed =
  let missing =
    List.filter (fun e -> not (List.mem e static)) observed
  in
  let unsound =
    List.map
      (fun (a, b) ->
        {
          Deep.f_rule = "lock-order";
          f_file = "<sanitizer-cross-check>";
          f_line = 0;
          f_msg =
            Printf.sprintf
              "runtime sanitizer observed lock edge %s -> %s absent from \
               the static graph (static analysis is unsound)"
              a b;
          f_chain = [];
        })
      missing
  in
  let vacuous =
    if static = [] && observed <> [] then
      [
        {
          Deep.f_rule = "lock-order";
          f_file = "<sanitizer-cross-check>";
          f_line = 0;
          f_msg =
            "static lock-order graph is empty but the runtime sanitizer \
             observed nested acquisitions (static analysis is vacuous)";
          f_chain = [];
        };
      ]
    else []
  in
  unsound @ vacuous

(* ---------------- the full run ---------------- *)

type report = {
  r_findings : Deep.finding list;
  r_functions : int;
  r_entries : int;
  r_static_edges : (string * string) list;
  r_observed_edges : (string * string) list;
  r_unreferenced_errs : string list;
  r_json : string;
}

let json_pairs edges =
  "["
  ^ String.concat ","
      (List.map
         (fun (a, b) ->
           "[" ^ Deep.json_str a ^ "," ^ Deep.json_str b ^ "]")
         edges)
  ^ "]"

let json_strings l =
  "[" ^ String.concat "," (List.map Deep.json_str l) ^ "]"

let run ?(build_dir = "_build/default") ?(src_prefix = "") ?(chaos = true)
    () =
  let facts = Deep.create () in
  List.iter
    (fun root ->
      List.iter (Deep.load_cmt facts)
        (cmt_files (Filename.concat build_dir root)))
    (checked_roots @ reference_roots);
  let md =
    Option.value (read_file (src_prefix ^ "PROTOCOL.md")) ~default:""
  in
  let ops_doc =
    section md "Major request numbers"
    ^ "\n" ^ section md "update service"
    ^ "\n" ^ section md "registration service"
  in
  let verbs_doc = section md "replication service" in
  let err_doc = section md "Error codes" in
  let err_unit = "Moira.Mr_err" in
  let system = Deep.restrict facts in_system in
  let static_edges =
    List.map
      (fun (e : Deep.lock_edge) -> (e.Deep.le_from, e.Deep.le_to))
      (Deep.lock_edges system)
    |> List.sort_uniq compare
  in
  let observed = if chaos then observed_edges_chaos () else [] in
  let sources =
    List.sort_uniq compare
      (List.map (fun (fn : Deep.fn) -> fn.Deep.fn_file) (Deep.sorted_fns facts))
    |> List.filter (under checked_roots)
    |> List.map (fun file ->
           (file, Option.value (read_file (src_prefix ^ file)) ~default:""))
  in
  let findings =
    Deep.gate ~sources
      (List.filter
         (fun (f : Deep.finding) -> not (under reference_roots f.Deep.f_file))
         (Deep.site_findings facts @ Deep.effect_findings facts)
      @ Deep.dead_findings facts ~root:(fun fn ->
            not (under [ "lib" ] fn.Deep.fn_file))
      @ Deep.lock_findings system
      @ Deep.proto_op_findings facts ~doc:ops_doc (ops ())
      @ Deep.proto_verb_findings facts ~doc:verbs_doc
          ~unit_name:"Relation.Replicate" verbs
      @ Deep.proto_err_findings facts ~doc:err_doc ~unit_name:err_unit
          ~size:(Comerr.Com_err.size Moira.Mr_err.table)
          ()
      @ cross_check_findings ~static:static_edges ~observed)
  in
  let unreferenced =
    List.filter_map
      (fun (name, _) ->
        if Deep.refs_to facts name = [] then Some name else None)
      (Deep.err_codes facts ~unit_name:err_unit)
  in
  let entries = Deep.entry_points facts in
  let json =
    Deep.report_json ~findings
      ~info:
        [
          ("functions", string_of_int (Hashtbl.length facts));
          ("entry_points", string_of_int (List.length entries));
          ("static_lock_edges", json_pairs static_edges);
          ("observed_lock_edges", json_pairs observed);
          ("unreferenced_error_codes", json_strings unreferenced);
        ]
  in
  {
    r_findings = findings;
    r_functions = Hashtbl.length facts;
    r_entries = List.length entries;
    r_static_edges = static_edges;
    r_observed_edges = observed;
    r_unreferenced_errs = unreferenced;
    r_json = json;
  }
