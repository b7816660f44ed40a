(* The rule catalogue, the per-file rule scoping, and the one
   [lint: allow] tracker every finding passes through.  Below [Deep] so
   the analyzer and its tests share a single notion of which rule ids
   exist, where each applies, and which suppressions went unused. *)

let rules =
  [
    ( "wall-clock",
      "Unix.gettimeofday/Unix.time/Sys.time/Gc stats, with the call chain \
       from an entry point" );
    ("global-random", "global Random (use the seeded Sim.Rng)");
    ( "unsorted-fold",
      "Hashtbl.fold/iter accumulating in hash order with no sort" );
    ("obj-magic", "Obj.magic");
    ("swallow-exn", "try ... with _ -> discards the exception");
    ("lock-protect", "Lock.acquire without Fun.protect in the definition");
    ("schema-ref", "table/column literal unknown to Schema_def");
    ("printf-in-lib", "stdout printing inside lib/ (route through Obs.log)");
    ( "lock-order",
      "lock-order cycle, opaque lock key, or a runtime edge the static \
       graph lacks" );
    ("proto-exhaustive", "opcode/verb/error code without arm or doc row");
    ( "dead-def",
      "lib/ definition no root reaches (code outside lib/, toplevel effects)"
    );
    ("bad-allow", "malformed lint: allow annotation");
    ("unused-allow", "lint: allow annotation that suppresses nothing");
  ]

let rule_known r = List.mem_assoc r rules

let find_sub ~start hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go start

let contains_sub hay needle =
  match find_sub ~start:0 hay needle with Some _ -> true | None -> false

(* Whole-file allowlist for real-time measurement, matched by path
   suffix so the analyzer works from any working directory. *)
let wall_clock_files = [ "bench/main.ml"; "bin/athena_sim.ml" ]

(* Per-file scoping: [printf-in-lib] is for lib/ only (clients and
   benches print to their terminal by design); [schema-ref] is off
   under test/ and bench/, which build ad-hoc relations with local
   schemas. *)
let applies ~file rule =
  match rule with
  | "printf-in-lib" -> contains_sub file "lib/"
  | "schema-ref" ->
      not (contains_sub file "test/" || contains_sub file "bench/")
  | "wall-clock" ->
      not (List.exists (Filename.check_suffix file) wall_clock_files)
  | _ -> true

(* ---------------- allow annotations ---------------- *)

type allow = {
  a_line : int;
  a_rule : string;
  a_solo : bool;  (* the line holds nothing but the comment *)
  mutable a_used : bool;
}

(* The annotation marker: an open-comment immediately followed by the
   keyword.  Built by concatenation so this file's own string literals
   never contain the marker verbatim. *)
let marker = "(*" ^ " lint: allow"

(* Parse one source line's allow comment.
   Returns [Ok allow] / [Error msg] / nothing. *)
let parse_allow ~lineno line =
  match find_sub ~start:0 line marker with
  | None -> None
  | Some i ->
      let rest =
        String.sub line
          (i + String.length marker)
          (String.length line - i - String.length marker)
      in
      let rest = String.trim rest in
      let rule, after =
        match String.index_opt rest ' ' with
        | None ->
            ( (match find_sub ~start:0 rest "*)" with
              | Some j -> String.trim (String.sub rest 0 j)
              | None -> rest),
              "" )
        | Some j ->
            ( String.sub rest 0 j,
              String.sub rest (j + 1) (String.length rest - j - 1) )
      in
      let reason =
        (* up to the comment close, minus the separator *)
        let upto =
          match find_sub ~start:0 after "*)" with
          | Some j -> String.sub after 0 j
          | None -> after
        in
        let upto = String.trim upto in
        let strip_prefix p s =
          if String.length s >= String.length p
             && String.sub s 0 (String.length p) = p
          then Some (String.trim (String.sub s (String.length p)
                                    (String.length s - String.length p)))
          else None
        in
        match strip_prefix "\xe2\x80\x94" upto with
        | Some r -> Some r (* em dash *)
        | None -> (
            match strip_prefix "--" upto with
            | Some r -> Some r
            | None -> None)
      in
      let solo = String.trim (String.sub line 0 i) = "" in
      if not (rule_known rule) then
        Some (Error (Printf.sprintf "unknown rule %S in lint: allow" rule))
      else begin
        match reason with
        | Some r when r <> "" ->
            Some (Ok { a_line = lineno; a_rule = rule; a_solo = solo;
                       a_used = false })
        | _ ->
            Some
              (Error
                 (Printf.sprintf
                    "lint: allow %s needs a reason (\"-- why\")" rule))
      end

let scan_allows source =
  let allows = ref [] and bad = ref [] in
  let lineno = ref 0 in
  List.iter
    (fun line ->
      incr lineno;
      match parse_allow ~lineno:!lineno line with
      | None -> ()
      | Some (Ok a) -> allows := a :: !allows
      | Some (Error msg) -> bad := (!lineno, msg) :: !bad)
    (String.split_on_char '\n' source);
  (List.rev !allows, List.rev !bad)

(* ---------------- the tracker ---------------- *)

type tracker = {
  allows : (string * allow) list;  (* file, annotation *)
  malformed : (string * int * string) list;  (* file, line, message *)
}

(* [sources] is every analyzed file with its text, so stale allows in
   finding-free files are still caught. *)
let track sources =
  let scanned =
    List.map (fun (file, src) -> (file, scan_allows src)) sources
  in
  {
    allows =
      List.concat_map
        (fun (file, (allows, _)) -> List.map (fun a -> (file, a)) allows)
        scanned;
    malformed =
      List.concat_map
        (fun (file, (_, bad)) ->
          List.map (fun (line, msg) -> (file, line, msg)) bad)
        scanned;
  }

(* An allow covers its own line, or the line below when alone on its
   line.  Marks the annotation used. *)
let suppressed t ~rule ~file ~line =
  match
    List.find_opt
      (fun (f, a) ->
        f = file && a.a_rule = rule
        && (a.a_line = line || (a.a_solo && a.a_line = line - 1)))
      t.allows
  with
  | Some (_, a) ->
      a.a_used <- true;
      true
  | None -> false

(* Malformed and unused annotations as [(file, line, rule, message)];
   call once every finding has been through {!suppressed}. *)
let hygiene t =
  List.map (fun (file, line, msg) -> (file, line, "bad-allow", msg)) t.malformed
  @ List.filter_map
      (fun (file, a) ->
        if a.a_used then None
        else
          Some
            ( file,
              a.a_line,
              "unused-allow",
              Printf.sprintf "allow %s suppresses nothing" a.a_rule ))
      t.allows
