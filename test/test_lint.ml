(* The analyzer's rule fixtures: a known-bad snippet per rule, the
   matching clean variant, the per-file scoping, and the suppression
   machinery.  Each snippet is typechecked in-process against the
   stdlib plus the stubs below, loaded under a lib/ path unless the case
   is about scoping, and run through every rule and the allow gate. *)

module Deep = Lint.Deep

let lib_file = "lib/moira/q_fixture.ml"

(* Stdlib-only stand-ins for the modules the rules key on. *)
let stubs =
  "module Unix = struct\n\
  \  let gettimeofday () = 0.\n\
  \  let time () = 0.\n\
   end\n\
   module Sim = struct\n\
  \  module Engine = struct let clock e = e end\n\
  \  module Rng = struct let int _ n = n end\n\
   end\n\
   module Lock = struct\n\
  \  type mode = Shared | Exclusive\n\
  \  let acquire _ ~key ~owner (_ : mode) = key <> owner\n\
  \  let release _ ~key ~owner = ignore (key, owner)\n\
   end\n\
   module Pred = struct\n\
  \  let eq_str (c : string) (v : string) = (c, v)\n\
   end\n\
   module Mdb = struct let table _ (name : string) = name end\n\
   module Gen = struct\n\
  \  let watch ?(columns = []) (t : string) = (t, columns)\n\
   end\n"

(* Build an allow comment without this test file ever containing the
   literal marker (the scanner is line-based and would otherwise read
   the fixture text inside this very file). *)
let allow rule reason = "(*" ^ " lint: allow " ^ rule ^ " -- " ^ reason ^ " *)"

let findings_of ?(file = lib_file) src =
  let src = stubs ^ src in
  let facts = Lint_fixture.load ~file src in
  Deep.gate
    ~sources:[ (file, src) ]
    (Deep.site_findings facts @ Deep.effect_findings facts
   @ Deep.lock_findings facts)

let rules_of ?file src =
  List.map (fun f -> f.Deep.f_rule) (findings_of ?file src)

let check_rules what expected src =
  Alcotest.(check (list string)) what expected (rules_of src)

let test_wall_clock () =
  check_rules "gettimeofday flagged" [ "wall-clock" ]
    "let t = Unix.gettimeofday ()";
  check_rules "Sys.time flagged" [ "wall-clock" ] "let t = Sys.time ()";
  check_rules "Unix.time flagged" [ "wall-clock" ] "let t = Unix.time ()";
  check_rules "Gc.quick_stat flagged" [ "wall-clock" ]
    "let w = (Gc.quick_stat ()).Gc.minor_words";
  check_rules "engine clock clean" []
    "let t engine = Sim.Engine.clock engine";
  check_rules "inside a functor body" [ "wall-clock" ]
    "module F (X : sig end) = struct let t = Sys.time () end";
  check_rules "toplevel expression" [ "wall-clock" ] ";; ignore (Sys.time ())";
  (* the built-in per-file allowlist: bench timing is legitimate *)
  Alcotest.(check (list string))
    "bench/main.ml allowlisted" []
    (rules_of ~file:"bench/main.ml" "let t = Unix.gettimeofday ()");
  Alcotest.(check (list string))
    "bin/athena_sim.ml allowlisted" []
    (rules_of ~file:"bin/athena_sim.ml" "let t = Unix.gettimeofday ()")

let test_global_random () =
  check_rules "self_init flagged" [ "global-random" ]
    "let () = Random.self_init ()";
  check_rules "Random.int flagged" [ "global-random" ]
    "let n = Random.int 5";
  check_rules "Sim.Rng clean" [] "let n rng = Sim.Rng.int rng 5";
  (* test code is analyzed too: a test must be as replayable as the
     system it checks *)
  Alcotest.(check (list string))
    "Random.int in a test/ unit" [ "global-random" ]
    (rules_of ~file:"test/test_fixture.ml" "let n = Random.int 5")

let test_obj_magic () =
  check_rules "Obj.magic flagged" [ "obj-magic" ] "let y x = Obj.magic x";
  check_rules "Obj.repr not flagged" [] "let y x = Obj.repr x"

let test_swallow_exn () =
  check_rules "wildcard handler flagged" [ "swallow-exn" ]
    "let v f = try f () with _ -> 0";
  check_rules "named wildcard flagged" [ "swallow-exn" ]
    "let v f = try f () with _e -> 0";
  check_rules "typed handler clean" []
    "let v f = try f () with Not_found -> 0";
  check_rules "bound exception clean" []
    "let v f log = try f () with e -> log e; 0"

let test_unsorted_fold () =
  check_rules "fold into concat flagged" [ "unsorted-fold" ]
    "let s h = String.concat \",\" (Hashtbl.fold (fun k _ a -> k :: a) h [])";
  check_rules "sorted fold clean" []
    "let s h =\n\
    \  String.concat \",\"\n\
    \    (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h []))";
  check_rules "iter into printf flagged (printf-in-lib rides along)"
    [ "printf-in-lib"; "unsorted-fold" ]
    "let f h = Printf.printf \"%s\" (Hashtbl.fold (fun k _ a -> a ^ k) h \"\")";
  check_rules "fold not reaching output clean" []
    "let n h = Hashtbl.fold (fun _ v a -> a + v) h 0"

let test_lock_protect () =
  check_rules "bare acquire flagged" [ "lock-protect" ]
    "let f l = ignore (Lock.acquire l ~key:\"k\" ~owner:\"o\" Lock.Exclusive)";
  check_rules "protected acquire clean" []
    "let f l run =\n\
    \  if Lock.acquire l ~key:\"k\" ~owner:\"o\" Lock.Exclusive then\n\
    \    Fun.protect\n\
    \      ~finally:(fun () -> Lock.release l ~key:\"k\" ~owner:\"o\")\n\
    \      run"

let test_schema_ref () =
  check_rules "unknown column flagged" [ "schema-ref" ]
    "let p = Pred.eq_str \"nosuch_column\" \"v\"";
  check_rules "known column clean" [] "let p = Pred.eq_str \"login\" \"v\"";
  check_rules "computed column skipped" []
    "let p prefix = Pred.eq_str (prefix ^ \"_type\") \"LIST\"";
  check_rules "unknown table flagged" [ "schema-ref" ]
    "let t mdb = Mdb.table mdb \"nosuch_table\"";
  check_rules "known table clean" [] "let t mdb = Mdb.table mdb \"users\"";
  check_rules "watch column flagged" [ "schema-ref" ]
    "let w = Gen.watch ~columns:[ \"nosuch\" ] \"users\"";
  (* tests may build ad-hoc relations: the rule is scoped out there *)
  Alcotest.(check (list string))
    "schema-ref off under test/" []
    (rules_of ~file:"test/test_fixture.ml" "let p = Pred.eq_str \"k\" \"v\"");
  Alcotest.(check (list string))
    "schema-ref off under bench/" []
    (rules_of ~file:"bench/main.ml" "let p = Pred.eq_str \"k\" \"v\"")

let test_printf_in_lib () =
  check_rules "print_endline flagged" [ "printf-in-lib" ]
    "let () = print_endline \"hi\"";
  check_rules "Printf.printf flagged" [ "printf-in-lib" ]
    "let () = Printf.printf \"%d\" 3";
  check_rules "Format.printf flagged" [ "printf-in-lib" ]
    "let () = Format.printf \"%d\" 3";
  check_rules "stderr clean" [] "let () = prerr_endline \"hi\"";
  check_rules "Printf.sprintf clean" [] "let s = Printf.sprintf \"%d\" 3";
  (* the rule is scoped to lib/: drivers own their stdout *)
  Alcotest.(check (list string))
    "bin/ exempt" []
    (rules_of ~file:"bin/moira_cli.ml" "let () = print_endline \"hi\"");
  Alcotest.(check (list string))
    "suppressible" []
    (rules_of
       ("let () = print_endline \"hi\"  "
       ^ allow "printf-in-lib" "fixture prints"))

let test_suppression () =
  Alcotest.(check (list string))
    "eol annotation suppresses" []
    (rules_of
       ("let t = Unix.gettimeofday ()  "
       ^ allow "wall-clock" "fixture needs real time"));
  Alcotest.(check (list string))
    "solo line above suppresses" []
    (rules_of
       (allow "wall-clock" "fixture needs real time"
       ^ "\nlet t = Unix.gettimeofday ()"));
  Alcotest.(check (list string))
    "annotation for another rule does not suppress"
    [ "unused-allow"; "wall-clock" ]
    (rules_of
       ("let t = Unix.gettimeofday ()  " ^ allow "obj-magic" "wrong rule"))

let test_allow_hygiene () =
  Alcotest.(check (list string))
    "stale annotation reported" [ "unused-allow" ]
    (rules_of (allow "wall-clock" "nothing here anymore" ^ "\nlet x = 1"));
  Alcotest.(check (list string))
    "missing reason rejected" [ "bad-allow"; "wall-clock" ]
    (rules_of
       ("let t = Unix.gettimeofday ()  "
       ^ "(*" ^ " lint: allow wall-clock *)"));
  Alcotest.(check (list string))
    "unknown rule rejected" [ "bad-allow"; "wall-clock" ]
    (rules_of
       ("let t = Unix.gettimeofday ()  " ^ allow "no-such-rule" "why"));
  (* one tracker for every rule: a lock-order allow goes stale like any
     other *)
  Alcotest.(check (list string))
    "stale lock-order allow reported" [ "unused-allow" ]
    (rules_of (allow "lock-order" "nothing nests here" ^ "\nlet x = 1"))

(* [dead-def] over a lib/ snippet: only code outside lib/ is a root. *)
let dead_of src =
  let facts = Lint_fixture.load ~file:lib_file src in
  Deep.gate
    ~sources:[ (lib_file, src) ]
    (Deep.dead_findings facts ~root:(fun fn ->
         not (String.starts_with ~prefix:"lib/" fn.Deep.fn_file)))

let test_dead_def () =
  Alcotest.(check (list (pair string int)))
    "only the unused definition, at its line" [ ("dead-def", 2) ]
    (List.map
       (fun f -> (f.Deep.f_rule, f.Deep.f_line))
       (dead_of
          "let helper () = 1\n\
           let unused () = 2\n\
           let () = ignore (helper ())\n"));
  Alcotest.(check (list string))
    "kept under an allow" []
    (List.map
       (fun f -> f.Deep.f_rule)
       (dead_of (allow "dead-def" "paper section 5" ^ "\nlet unused () = 2")));
  (* a test is a root: what only tests call stays *)
  let facts = Deep.create () in
  let fn name file line refs =
    let f = Deep.make_fn ~name ~unit_name:"Q" ~file ~line in
    f.Deep.fn_refs <- refs;
    Deep.add_fn facts f
  in
  fn "Q.helper" lib_file 1 [];
  fn "T.check" "test/test_q.ml" 1 [ ("Q.helper", 1) ];
  Alcotest.(check int) "reached only from test/: not reported" 0
    (List.length
       (Deep.dead_findings facts ~root:(fun fn ->
            not (String.starts_with ~prefix:"lib/" fn.Deep.fn_file))))

(* One known-bad snippet per catalogue rule; proto-exhaustive needs a
   protocol model, so it gets a verb check instead, and dead-def a
   reachability root. *)
let bad_snippets =
  [
    ("wall-clock", "let t = Sys.time ()");
    ("global-random", "let n = Random.int 5");
    ("unsorted-fold", "let k h = Hashtbl.fold (fun k _ a -> k :: a) h []");
    ("obj-magic", "let y x = Obj.magic x");
    ("swallow-exn", "let v f = try f () with _ -> 0");
    ( "lock-protect",
      "let f l = Lock.acquire l ~key:\"k\" ~owner:\"o\" Lock.Shared" );
    ("schema-ref", "let t mdb = Mdb.table mdb \"nosuch_table\"");
    ("printf-in-lib", "let () = print_string \"hi\"");
    ( "lock-order",
      "let f l k = Fun.protect ~finally:ignore (fun () -> \
       Lock.acquire l ~key:k ~owner:\"o\" Lock.Shared)" );
    ("dead-def", "let unused () = ()");
    ("bad-allow", "(*" ^ " lint: allow obj-magic *)");
    ("unused-allow", allow "obj-magic" "nothing here" ^ "\nlet x = 1");
  ]

let test_catalogue () =
  let fired = function
    | "proto-exhaustive" ->
        let facts =
          Lint_fixture.load ~file:lib_file "let send ch = ch \"PING\""
        in
        List.map
          (fun f -> f.Deep.f_rule)
          (Deep.proto_verb_findings facts ~doc:"" ~unit_name:"Q_fixture"
             [ "PING" ])
    | "dead-def" ->
        List.map
          (fun f -> f.Deep.f_rule)
          (dead_of (List.assoc "dead-def" bad_snippets))
    | rule -> rules_of (List.assoc rule bad_snippets)
  in
  List.iter
    (fun (rule, _) ->
      Alcotest.(check bool) (rule ^ " fired by its fixture") true
        (List.mem rule (fired rule)))
    Lint.Allow.rules

(* The acceptance criterion, run from the build sandbox by dune: the
   analyzer over every tree's .cmt files (declared as test deps). *)
let test_repo_is_clean () =
  let r =
    Lint.Deep_moira.run ~build_dir:".." ~src_prefix:"../" ()
  in
  Alcotest.(check bool) "lib, bin, test and bench loaded" true
    (r.Lint.Deep_moira.r_functions > 2000);
  (* test code contends for locks on purpose; none of that may reach
     the static graph the sanitizer cross-check trusts *)
  Alcotest.(check (list (pair string string)))
    "lock-order graph over lib/ and bin/" [ ("service", "host") ]
    r.Lint.Deep_moira.r_static_edges;
  Alcotest.(check (list string))
    "tree clean" []
    (List.map Deep.pp_finding r.Lint.Deep_moira.r_findings)

let suite =
  [
    Alcotest.test_case "wall-clock" `Quick test_wall_clock;
    Alcotest.test_case "global-random" `Quick test_global_random;
    Alcotest.test_case "obj-magic" `Quick test_obj_magic;
    Alcotest.test_case "swallow-exn" `Quick test_swallow_exn;
    Alcotest.test_case "unsorted-fold" `Quick test_unsorted_fold;
    Alcotest.test_case "lock-protect" `Quick test_lock_protect;
    Alcotest.test_case "schema-ref" `Quick test_schema_ref;
    Alcotest.test_case "printf-in-lib" `Quick test_printf_in_lib;
    Alcotest.test_case "suppression" `Quick test_suppression;
    Alcotest.test_case "allow hygiene" `Quick test_allow_hygiene;
    Alcotest.test_case "dead-def" `Quick test_dead_def;
    Alcotest.test_case "catalogue covered" `Quick test_catalogue;
    Alcotest.test_case "repo tree clean" `Quick test_repo_is_clean;
  ]
