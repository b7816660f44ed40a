(* The analyzer's engine ([Lint.Deep] / [Lint.Deep_moira]): effect
   propagation with call chains, name resolution, the static lock-order
   graph and its agreement with the runtime sanitizer over a simulated
   chaos day, and the protocol exhaustiveness checks.  Source fixtures
   are typechecked in-process ([Lint_fixture.load_source]), so they only
   use the stdlib; graph fixtures are hand-built fact records. *)

module Deep = Lint.Deep
module Deep_moira = Lint.Deep_moira

let load name src = Lint_fixture.load ~file:(name ^ ".ml") src

let rules fs = List.map (fun f -> f.Deep.f_rule) fs
let lines fs = List.map (fun f -> f.Deep.f_line) fs

let has_msg fs sub =
  List.exists
    (fun f ->
      let rec go i =
        i + String.length sub <= String.length f.Deep.f_msg
        && (String.sub f.Deep.f_msg i (String.length sub) = sub || go (i + 1))
      in
      go 0)
    fs

(* ---- effect reach ---- *)

let test_effect_chain () =
  let facts =
    load "fix_eff"
      "let now () = Sys.time ()\n\
       let middle () = now ()\n\
       let top () = middle ()\n"
  in
  Alcotest.(check (list string))
    "top is the only entry point" [ "Fix_eff.top" ]
    (Deep.entry_points facts);
  match Deep.effect_findings facts with
  | [ f ] ->
      Alcotest.(check string) "rule" "wall-clock" f.Deep.f_rule;
      Alcotest.(check bool) "wall-clock reaches top" true
        (has_msg [ f ] "reached from Fix_eff.top");
      Alcotest.(check int) "located at the Sys.time site" 1 f.Deep.f_line;
      Alcotest.(check (list string))
        "full call chain from the entry"
        [ "Fix_eff.top"; "Fix_eff.middle"; "Fix_eff.now" ]
        f.Deep.f_chain
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_effect_kinds () =
  let facts =
    load "fix_kinds"
      "let roll () = Random.int 6\n\
       let shout s = print_string s\n\
       let main () = shout (string_of_int (roll ()))\n"
  in
  let fs = Deep.effect_findings facts in
  Alcotest.(check (list string))
    "one effect finding, under its own id" [ "global-random" ] (rules fs);
  Alcotest.(check (list (list string)))
    "random reaches main through roll"
    [ [ "Fix_kinds.main"; "Fix_kinds.roll" ] ]
    (List.map (fun f -> f.Deep.f_chain) fs);
  (* printing is a per-definition site, not an effect: it does not
     travel to callers *)
  Alcotest.(check (list string))
    "stdout print is a site" [ "printf-in-lib" ]
    (rules (Deep.site_findings facts))

let test_unordered_iter () =
  let facts =
    load "fix_iter"
      "let keys h = Hashtbl.fold (fun k _ a -> k :: a) h []\n\
       let keys_sorted h =\n\
      \  List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h [])\n\
       let by_name l = List.sort compare l\n\
       let keys_via_helper h = by_name (Hashtbl.fold (fun k _ a -> k :: a) h [])\n\
       let each h f = Hashtbl.iter f h\n"
  in
  let fs = Deep.effect_findings facts in
  (* the bare fold leaks hash order; the opaque-function wrapper is
     conservatively flagged; both sorted variants (direct, and via the
     one-call-away helper) are discharged *)
  Alcotest.(check (list int)) "bare fold and opaque wrapper" [ 1; 6 ] (lines fs);
  Alcotest.(check (list string)) "reported as unsorted-fold"
    [ "unsorted-fold"; "unsorted-fold" ] (rules fs)

let test_effect_suppression () =
  let src =
    "let now () = Sys.time ()  (*" ^ " lint: allow wall-clock -- fixture *)\n\
     let top () = now ()\n"
  in
  let facts = load "fix_sup" src in
  Alcotest.(check int) "one site before the gate" 1
    (List.length (Deep.effect_findings facts));
  Alcotest.(check int) "suppressed at the site, for every caller" 0
    (List.length
       (Deep.gate
          ~sources:[ ("fix_sup.ml", src) ]
          (Deep.effect_findings facts)))

(* A wrapped library with a main module reaches its siblings through
   the alias module ([Lint__.Deep]); those references must resolve, or
   the call graph silently loses every edge between them. *)
let test_wrapped_refs () =
  Alcotest.(check string) "alias-module path" "Lint.Deep.create"
    (Deep.norm_path "Lint__.Deep.create");
  Alcotest.(check string) "unit mangling" "Dcm.Manager.run"
    (Deep.norm_path "Dcm__Manager.run");
  Alcotest.(check string) "executable sibling" "Fix.create"
    (Deep.norm_path "Dune__exe.Fix.create");
  let facts = Deep.create () in
  List.iter (Deep.load_cmt facts) (Deep_moira.cmt_files "../lib");
  let dotted =
    List.concat_map
      (fun fn ->
        List.filter_map
          (fun (r, _) ->
            if Lint.Allow.contains_sub r ".." then
              Some (fn.Deep.fn_name ^ " -> " ^ r)
            else None)
          fn.Deep.fn_refs)
      (Deep.sorted_fns facts)
  in
  Alcotest.(check (list string)) "no reference contains .." [] dotted;
  let run = Hashtbl.find facts "Lint.Deep_moira.run" in
  Alcotest.(check bool) "Deep_moira.run calls Deep.load_cmt" true
    (List.mem "Lint.Deep.load_cmt" (Deep.callees facts run))

(* Each way a reference reaches a definition, resolved through the
   unit's scope rather than by qualifying the written name with the
   unit: the call edge must carry the effect back to the entry. *)
let chains facts =
  List.map (fun f -> f.Deep.f_chain) (Deep.effect_findings facts)

let test_resolve_submodule () =
  let facts =
    load "fix_sub"
      "module Sub = struct\n\
      \  let now () = Sys.time ()\n\
      \  let top () = now ()\n\
       end\n"
  in
  Alcotest.(check (list (list string)))
    "a bare call inside a submodule resolves there"
    [ [ "Fix_sub.Sub.top"; "Fix_sub.Sub.now" ] ]
    (chains facts)

let test_resolve_alias () =
  let facts =
    load "fix_alias"
      "module Inner = struct let now () = Sys.time () end\n\
       module A = Inner\n\
       let top () = A.now ()\n"
  in
  Alcotest.(check (list (list string)))
    "a call through a module alias reaches the target"
    [ [ "Fix_alias.top"; "Fix_alias.Inner.now" ] ]
    (chains facts)

let test_resolve_letop () =
  let facts =
    load "fix_letop"
      "let ( let* ) x f = ignore (Sys.time ()); f x\n\
       let top () = let* y = 1 in y\n"
  in
  Alcotest.(check (list (list string)))
    "a binding operator is a call"
    [ [ "Fix_letop.top"; "Fix_letop.let*" ] ]
    (chains facts)

let test_resolve_functor_arg () =
  let facts =
    load "fix_functor"
      "module Key = struct\n\
      \  type t = int\n\
      \  let compare a b = ignore (Random.int 2); Int.compare a b\n\
       end\n\
       module M = Map.Make (Key)\n\
       let top () = M.cardinal (M.add 1 () M.empty)\n"
  in
  Alcotest.(check (list (list string)))
    "using the application reaches the argument's values"
    [ [ "Fix_functor.top"; "Fix_functor.M"; "Fix_functor.Key.compare" ] ]
    (chains facts)

let test_resolve_annotated () =
  let facts =
    load "fix_annot"
      "let memo : (int, int) Hashtbl.t = Hashtbl.create 8\n\
       let get k = Hashtbl.find memo k\n"
  in
  Alcotest.(check (list string))
    "an annotated toplevel binding keeps its name" [ "Fix_annot.memo" ]
    (Deep.callees facts (Hashtbl.find facts "Fix_annot.get"))

(* ---- lock order ---- *)

let lock_prelude =
  "module Lock = struct\n\
  \  let acquire ~key ~owner = ignore key; ignore owner; true\n\
   end\n"

let test_lock_edges () =
  let facts =
    load "fix_lock"
      (lock_prelude
      ^ "let host_phase () =\n\
        \  let a = Lock.acquire ~key:\"service:z\" ~owner:\"dcm\" in\n\
        \  let b = Lock.acquire ~key:(\"host:\" ^ \"z/w\") ~owner:\"dcm\" in\n\
        \  a && b\n")
  in
  Alcotest.(check (list (pair string string)))
    "service nests over host"
    [ ("service", "host") ]
    (List.map
       (fun e -> (e.Deep.le_from, e.Deep.le_to))
       (Deep.lock_edges facts));
  Alcotest.(check int) "no findings on a clean order" 0
    (List.length (Deep.lock_findings facts))

(* The nested acquire sits in a helper called bare from inside a
   submodule: the edge exists only if that call resolves. *)
let test_lock_edge_via_submodule () =
  let facts =
    load "fix_lock_sub"
      (lock_prelude
      ^ "module Hosts = struct\n\
        \  let take () = Lock.acquire ~key:\"host:z/w\" ~owner:\"dcm\"\n\
        \  let phase () =\n\
        \    let a = Lock.acquire ~key:\"service:z\" ~owner:\"dcm\" in\n\
        \    a && take ()\n\
         end\n")
  in
  Alcotest.(check (list (pair string string)))
    "service nests over host through the helper"
    [ ("service", "host") ]
    (List.map
       (fun e -> (e.Deep.le_from, e.Deep.le_to))
       (Deep.lock_edges facts))

let test_lock_cycle () =
  let facts =
    load "fix_cycle"
      (lock_prelude
      ^ "let ab () =\n\
        \  let a = Lock.acquire ~key:\"alpha:1\" ~owner:\"x\" in\n\
        \  let b = Lock.acquire ~key:\"beta:1\" ~owner:\"x\" in\n\
        \  a && b\n\
         let ba () =\n\
        \  let b = Lock.acquire ~key:\"beta:2\" ~owner:\"x\" in\n\
        \  let a = Lock.acquire ~key:\"alpha:2\" ~owner:\"x\" in\n\
        \  a && b\n")
  in
  let fs = Deep.lock_findings facts in
  Alcotest.(check (list string)) "one cycle finding" [ "lock-order" ] (rules fs);
  Alcotest.(check bool) "names the cycle" true (has_msg fs "cycle");
  (* the evidence chain carries both offending acquisition sites *)
  match fs with
  | [ f ] ->
      Alcotest.(check int) "two evidence edges" 2 (List.length f.Deep.f_chain)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_lock_opaque_key () =
  let facts =
    load "fix_opaque"
      (lock_prelude ^ "let f k = Lock.acquire ~key:k ~owner:\"o\"\n")
  in
  let fs = Deep.lock_findings facts in
  Alcotest.(check (list string)) "opaque key flagged" [ "lock-order" ]
    (rules fs);
  Alcotest.(check bool) "says why" true (has_msg fs "cannot classify")

(* The acceptance criterion: every lock edge the runtime sanitizer
   observes during a simulated chaos day must be in the static graph.
   The fixture graph mirrors [Dcm.Manager.host_phase]'s nesting; the
   observed side is the real testbed with the sanitizer installed. *)
let test_sanitizer_agreement () =
  let facts =
    load "fix_agree"
      (lock_prelude
      ^ "let host_phase () =\n\
        \  let a = Lock.acquire ~key:\"service:z\" ~owner:\"dcm\" in\n\
        \  let b = Lock.acquire ~key:\"host:z/w\" ~owner:\"dcm\" in\n\
        \  a && b\n")
  in
  let static =
    List.map (fun e -> (e.Deep.le_from, e.Deep.le_to)) (Deep.lock_edges facts)
  in
  let observed = Deep_moira.observed_edges_chaos () in
  Alcotest.(check (list (pair string string)))
    "chaos day exercises the service->host nesting"
    [ ("service", "host") ]
    observed;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "observed edge %s -> %s is in the static graph" a b)
        true
        (List.mem (a, b) static))
    observed

(* ---- protocol exhaustiveness ---- *)

let toy_op facts ~refs =
  let mk name line = Deep.make_fn ~name ~unit_name:"Toy" ~file:"toy.ml" ~line in
  Deep.add_fn facts (mk "Toy.op_ping" 1);
  List.iteri
    (fun i name ->
      let fn = mk name (10 + i) in
      fn.Deep.fn_refs <- [ ("Toy.op_ping", 10 + i) ];
      Deep.add_fn facts fn)
    refs

let test_proto_ops () =
  let facts = Deep.create () in
  toy_op facts ~refs:[ "Toy.send"; "Toy.handle" ];
  Alcotest.(check int) "sender + arm + doc row: clean" 0
    (List.length
       (Deep.proto_op_findings facts ~doc:"| 7 | PING | — |"
          [ ("Toy.op_ping", 7) ]));
  let facts = Deep.create () in
  toy_op facts ~refs:[ "Toy.send" ];
  let fs =
    Deep.proto_op_findings facts ~doc:"| 9 | OTHER |" [ ("Toy.op_ping", 7) ]
  in
  (* one missing dispatch arm, one missing doc row *)
  Alcotest.(check (list string))
    "arm and doc both flagged"
    [ "proto-exhaustive"; "proto-exhaustive" ]
    (rules fs);
  Alcotest.(check bool) "counts the refs" true (has_msg fs "1 definition(s)");
  Alcotest.(check bool) "doc row missing" true (has_msg fs "no PROTOCOL.md")

(* String verbs in match-arm patterns count as uses — the handler side
   of a dispatch is a pattern, not an expression. *)
let test_verbs_in_patterns () =
  let facts =
    load "fix_verbs"
      "let send ch = ch \"PING\"\n\
       let handle = function \"PING\" -> 0 | _ -> 1\n"
  in
  Alcotest.(check int) "sender + pattern arm + doc row: clean" 0
    (List.length
       (Deep.proto_verb_findings facts ~doc:"| PING | — |"
          ~unit_name:"Fix_verbs" [ "PING" ]));
  let fs =
    Deep.proto_verb_findings facts ~doc:"" ~unit_name:"Fix_verbs" [ "NOPE" ]
  in
  Alcotest.(check bool) "unknown verb flagged" true (List.length fs >= 1)

let test_err_codes () =
  let toy ~idxs =
    let facts = Deep.create () in
    List.iteri
      (fun i (name, idx) ->
        let fn =
          Deep.make_fn ~name ~unit_name:"Toy" ~file:"toy.ml" ~line:(i + 1)
        in
        fn.Deep.fn_code_idx <- Some idx;
        Deep.add_fn facts fn)
      idxs;
    facts
  in
  let facts = toy ~idxs:[ ("Toy.mr_a", 0); ("Toy.mr_b", 1) ] in
  Alcotest.(check int) "complete table: clean" 0
    (List.length
       (Deep.proto_err_findings facts ~doc:"| 0 | A |\n| 1 | B |"
          ~unit_name:"Toy" ~size:2 ()));
  let facts = toy ~idxs:[ ("Toy.mr_a", 0); ("Toy.mr_b", 0); ("Toy.mr_c", 5) ] in
  let fs =
    Deep.proto_err_findings facts ~doc:"| 0 | A |" ~unit_name:"Toy" ~size:2 ()
  in
  Alcotest.(check bool) "duplicate index" true (has_msg fs "more than once");
  Alcotest.(check bool) "out of range" true (has_msg fs "out of range");
  Alcotest.(check bool) "gap (index 1 unnamed)" true
    (has_msg fs "index 1 of Toy");
  Alcotest.(check bool) "doc row missing for 5" true
    (has_msg fs "no PROTOCOL.md")

(* ---- report plumbing ---- *)

let test_json () =
  let f =
    {
      Deep.f_rule = "wall-clock";
      f_file = "a.ml";
      f_line = 3;
      f_msg = "quote \" and backslash \\";
      f_chain = [ "A.f"; "A.g" ];
    }
  in
  let json = Deep.report_json ~findings:[ f ] ~info:[ ("functions", "2") ] in
  Alcotest.(check bool) "escapes quotes" true
    (String.length json > 0
    && Deep.doc_has_cell "| x |" "x" (* keep doc_has_cell exercised *)
    &&
    let sub = "\\\"" in
    let rec go i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || go (i + 1))
    in
    go 0)

let suite =
  [
    Alcotest.test_case "effect chain" `Quick test_effect_chain;
    Alcotest.test_case "effect kinds" `Quick test_effect_kinds;
    Alcotest.test_case "unordered iter + sort discharge" `Quick
      test_unordered_iter;
    Alcotest.test_case "effect suppression" `Quick test_effect_suppression;
    Alcotest.test_case "wrapped-library refs resolve" `Quick test_wrapped_refs;
    Alcotest.test_case "resolve: submodule-local call" `Quick
      test_resolve_submodule;
    Alcotest.test_case "resolve: module alias" `Quick test_resolve_alias;
    Alcotest.test_case "resolve: binding operator" `Quick test_resolve_letop;
    Alcotest.test_case "resolve: functor argument" `Quick
      test_resolve_functor_arg;
    Alcotest.test_case "resolve: annotated toplevel binding" `Quick
      test_resolve_annotated;
    Alcotest.test_case "lock edges" `Quick test_lock_edges;
    Alcotest.test_case "lock edge via submodule helper" `Quick
      test_lock_edge_via_submodule;
    Alcotest.test_case "lock cycle" `Quick test_lock_cycle;
    Alcotest.test_case "opaque lock key" `Quick test_lock_opaque_key;
    Alcotest.test_case "sanitizer agreement (chaos day)" `Quick
      test_sanitizer_agreement;
    Alcotest.test_case "proto opcodes" `Quick test_proto_ops;
    Alcotest.test_case "verbs in patterns" `Quick test_verbs_in_patterns;
    Alcotest.test_case "error codes" `Quick test_err_codes;
    Alcotest.test_case "json report" `Quick test_json;
  ]
