(* The schema–query cross-checker: clean on the real catalogue and
   generators, loud on seeded drift (misspelled column, bad short,
   duplicate name, stale generator watch). *)

open Moira

let findings_str fs = List.map Check.pp fs

(* -- the real registry is drift-free (the acceptance criterion) -- *)

let test_real_registry_clean () =
  let t = Fix.create () in
  Alcotest.(check (list string))
    "no findings" []
    (findings_str (Check.registry t.Fix.mdb t.Fix.registry))

let test_integrity_query () =
  let t = Fix.create () in
  let rows = Fix.expect_ok "_check_integrity" (Fix.as_user t "ann" "_check_integrity" []) in
  Alcotest.(check (list (list string))) "empty result = invariant holds" [] rows

let test_standard_generators_clean () =
  Alcotest.(check (list string))
    "no findings" []
    (findings_str (Dcm.Manager.check_generators Dcm.Manager.standard_generators))

(* -- seeded drift is caught -- *)

let dummy_access _ _ = Ok ()

let q ?(name = "probe_fixture") ?(short = "prfx") ?(kind = Query.Retrieve)
    ?(inputs = []) ?(outputs = [ "out" ]) handler =
  { Query.name; short; kind; inputs; outputs; check_access = dummy_access;
    handler }

let rules fs = List.sort_uniq compare (List.map (fun f -> f.Check.c_rule) fs)

let test_misspelled_column () =
  let t = Fix.create () in
  (* the classic drift: a retrieve whose projector names a column that
     was renamed away.  Qlib.projector resolves names via
     Schema.index_of, which raises Not_found — the probe must turn that
     into a finding, not an escape. *)
  let bad =
    q ~outputs:[ "login" ] (fun ctx _ ->
        let tbl = Mdb.table ctx.Query.mdb "users" in
        let project = Qlib.projector tbl [ "loginn" ] in
        Ok (List.map (fun (_, row) -> project row) (Relation.Plan.select tbl Relation.Pred.True)))
  in
  Alcotest.(check (list string))
    "probe-raise" [ "probe-raise" ]
    (rules (Check.probe_queries t.Fix.mdb [ bad ]))

let test_output_arity_drift () =
  let t = Fix.create () in
  let bad =
    q ~outputs:[ "a"; "b" ] (fun _ _ -> Ok [ [ "only-one" ] ])
  in
  Alcotest.(check (list string))
    "output-arity" [ "output-arity" ]
    (rules (Check.probe_queries t.Fix.mdb [ bad ]))

let test_short_shape () =
  let bad = q ~short:"xy" (fun _ _ -> Ok []) in
  Alcotest.(check (list string))
    "short-shape" [ "short-shape" ]
    (rules (Check.static_queries [ bad ]))

let test_duplicate_names () =
  let a = q ~name:"same_name" ~short:"aaaa" (fun _ _ -> Ok []) in
  let b = q ~name:"same_name" ~short:"bbbb" (fun _ _ -> Ok []) in
  Alcotest.(check (list string))
    "dup-name" [ "dup-name" ]
    (rules (Check.static_queries [ a; b ]))

let test_mutation_with_outputs () =
  let bad = q ~kind:Query.Update ~outputs:[ "oops" ] (fun _ _ -> Ok []) in
  Alcotest.(check (list string))
    "kind-outputs" [ "kind-outputs" ]
    (rules (Check.static_queries [ bad ]))

let test_capacl_unknown_query () =
  let t = Fix.create () in
  Acl.set_capacl t.Fix.mdb ~query:"no_such_query_handle" ~tag:"nsqh"
    ~list_id:1;
  let fs = Check.capacls t.Fix.mdb (Query.all t.Fix.registry) in
  Alcotest.(check (list string)) "capacl-query" [ "capacl-query" ] (rules fs)

let empty_output _ = { Dcm.Gen.common = []; per_host = [] }

let test_generator_unknown_table () =
  let bad =
    Dcm.Gen.monolithic ~service:"FIXTURE"
      ~watches:[ Dcm.Gen.watch "no_such_relation" ]
      empty_output
  in
  Alcotest.(check (list string))
    "watch-table" [ "watch-table" ]
    (rules (Dcm.Manager.check_generators [ bad ]))

let test_generator_non_modtime_column () =
  (* login is a string column: watching it for modtimes is a type bug *)
  let bad =
    Dcm.Gen.monolithic ~service:"FIXTURE"
      ~watches:[ Dcm.Gen.watch ~columns:[ "login" ] "users" ]
      empty_output
  in
  Alcotest.(check (list string))
    "watch-column" [ "watch-column" ]
    (rules (Dcm.Manager.check_generators [ bad ]))

let suite =
  [
    Alcotest.test_case "real registry clean" `Quick test_real_registry_clean;
    Alcotest.test_case "_check_integrity query" `Quick test_integrity_query;
    Alcotest.test_case "standard generators clean" `Quick
      test_standard_generators_clean;
    Alcotest.test_case "misspelled column caught" `Quick
      test_misspelled_column;
    Alcotest.test_case "output arity drift caught" `Quick
      test_output_arity_drift;
    Alcotest.test_case "short shape" `Quick test_short_shape;
    Alcotest.test_case "duplicate names" `Quick test_duplicate_names;
    Alcotest.test_case "mutation with outputs" `Quick
      test_mutation_with_outputs;
    Alcotest.test_case "capacl names unknown query" `Quick
      test_capacl_unknown_query;
    Alcotest.test_case "generator unknown table" `Quick
      test_generator_unknown_table;
    Alcotest.test_case "generator non-modtime column" `Quick
      test_generator_non_modtime_column;
  ]
