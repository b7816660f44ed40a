(* The string intern pool: hash-consed row atoms, physical sharing that
   survives the recovery paths (backup restore, journal replay), and the
   sorted view of an index's bucket keys that prefix globs read. *)

open Relation

let schema =
  Schema.make ~name:"people"
    [
      { Schema.cname = "name"; ctype = Value.TStr };
      { Schema.cname = "age"; ctype = Value.TInt };
      { Schema.cname = "shell"; ctype = Value.TStr };
    ]

let fresh_table ?(indexed = [ "name"; "age" ]) () =
  let clock = ref 100 in
  Table.create ~indexed ~clock:(fun () -> !clock) schema

(* a physically fresh copy: equal contents, distinct heap block *)
let copy_string s = String.init (String.length s) (String.get s)

(* --- the pool itself --- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"intern: id/of_id roundtrip, share dedups"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 30))
    (fun s ->
      let c = Intern.share s in
      c = s
      && Intern.of_id (Intern.id s) = Some s
      (* a fresh copy of the same bytes maps to the same heap string *)
      && Intern.share (copy_string s) == c)

let test_value_boxes () =
  Alcotest.(check bool) "small ints share a box" true
    (Intern.value (Value.Int 5) == Intern.value (Value.Int 5));
  Alcotest.(check bool) "bools share a box" true
    (Intern.value (Value.Bool true) == Intern.value (Value.Bool true));
  let big = Value.Int 123_456_789 in
  Alcotest.(check bool) "big ints pass through unchanged" true
    (Intern.value big == big);
  Alcotest.(check bool) "str boxes dedup across copies" true
    (Intern.value (Value.Str (copy_string "zigzag"))
    == Intern.value (Value.Str (copy_string "zigzag")))

let test_insert_interns_rows () =
  let t = fresh_table () in
  let r1 =
    Table.insert t
      [| Value.Str (copy_string "ann"); Value.Int 20;
         Value.Str (copy_string "/bin/csh") |]
  in
  let r2 =
    Table.insert t
      [| Value.Str (copy_string "bob"); Value.Int 21;
         Value.Str (copy_string "/bin/csh") |]
  in
  match (Table.get t r1, Table.get t r2) with
  | Some a, Some b ->
      Alcotest.(check bool) "equal cells share one box" true
        (a.(2) == b.(2));
      Alcotest.(check bool) "distinct cells do not" true (a.(0) != b.(0))
  | _ -> Alcotest.fail "inserted rows missing"

let test_update_interns_rows () =
  let t = fresh_table () in
  ignore (Table.insert t [| Value.Str "ann"; Value.Int 20; Value.Str "/bin/csh" |]);
  ignore (Table.insert t [| Value.Str "bob"; Value.Int 21; Value.Str "/bin/sh" |]);
  ignore
    (Plan.set_fields t (Pred.eq_str "name" "bob")
       [ ("shell", Value.Str (copy_string "/bin/csh")) ]);
  let cell name =
    match Plan.select_one t (Pred.eq_str "name" name) with
    | Some (_, row) -> row.(2)
    | None -> Alcotest.fail (name ^ " missing")
  in
  Alcotest.(check bool) "updated cell joins the shared box" true
    (cell "ann" == cell "bob")

(* --- sharing survives the recovery paths --- *)

let test_backup_restore_preserves_sharing () =
  let t = fresh_table () in
  for i = 0 to 9 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%d" i); Value.Int (20 + i);
            Value.Str (copy_string "/bin/csh") |])
  done;
  let dumped = Backup.dump_table t in
  let t2 = fresh_table () in
  Alcotest.(check int) "all rows restored" 10 (Backup.restore_table t2 dumped);
  Alcotest.(check string) "bytes roundtrip" dumped (Backup.dump_table t2);
  match
    ( Plan.select_one t2 (Pred.eq_str "name" "u0"),
      Plan.select_one t2 (Pred.eq_str "name" "u7") )
  with
  | Some (_, a), Some (_, b) ->
      Alcotest.(check bool) "restored rows share interned cells" true
        (a.(2) == b.(2))
  | _ -> Alcotest.fail "restored rows missing"

let test_journal_replay_preserves_sharing () =
  let j = Journal.create () in
  List.iter
    (fun (time, login) ->
      Journal.append j
        {
          Journal.time;
          who = copy_string "admin";
          client = copy_string "moira";
          query = copy_string "update_user_shell";
          ctx = "";
          args = [ login; "/bin/sh" ];
        })
    [ (10, "ann"); (20, "bob"); (30, "cyn") ];
  let shared_who es =
    match es with
    | a :: rest ->
        List.for_all (fun e -> e.Journal.who == a.Journal.who) rest
    | [] -> false
  in
  Alcotest.(check bool) "appended entries share who" true
    (shared_who (Journal.entries j));
  (* the serialize/parse recovery path re-interns on append *)
  let j2 = Journal.of_lines (Journal.to_lines j) in
  Alcotest.(check int) "replayed length" 3 (Journal.length j2);
  Alcotest.(check bool) "parsed entries share who" true
    (shared_who (Journal.entries j2));
  Alcotest.(check bool) "and share with the pool's canonical copy" true
    ((List.hd (Journal.entries j2)).Journal.who == Intern.share "admin")

(* --- the sorted view behind prefix globs --- *)

(* reference: unindexed full evaluation *)
let naive t p =
  List.rev
    (Table.fold t ~init:[] ~f:(fun acc id row ->
         if Pred.eval (Table.schema t) p row then (id, row) :: acc else acc))

let test_sorted_after_clear () =
  let t = fresh_table () in
  for i = 0 to 49 do
    ignore
      (Table.insert t
         [| Value.Str (Printf.sprintf "u%02d" i); Value.Int i;
            Value.Str "/bin/csh" |])
  done;
  let q = Pred.Glob ("name", "u*") in
  Alcotest.(check int) "before clear" 50 (List.length (Plan.select t q));
  Table.clear t;
  ignore (Table.insert t [| Value.Str "u-solo"; Value.Int 7; Value.Str "/bin/sh" |]);
  (* the view built before the clear must not resurrect its rows *)
  match Plan.select t q with
  | [ (_, row) ] ->
      Alcotest.(check string) "only the post-clear row" "u-solo"
        (Value.str row.(0))
  | l -> Alcotest.failf "expected 1 row after clear, got %d" (List.length l)

let prop_sorted_prefix_model =
  (* random edit scripts over an indexed table: every prefix-glob answer
     must match naive evaluation however the view is rebuilt *)
  QCheck.Test.make ~name:"sorted view: prefix = naive eval"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_range 0 2) (int_range 0 19) (int_range 0 30)))
    (fun script ->
      let t = fresh_table () in
      for i = 0 to 19 do
        ignore
          (Table.insert t
             [| Value.Str (Printf.sprintf "u%02d" i); Value.Int i;
                Value.Str "/bin/csh" |])
      done;
      let queries =
        List.map
          (fun pat -> Pred.Glob ("name", pat))
          [ "u1*"; "n0*"; "n1?-*"; "u*"; "\xff*" ]
      in
      let agree () =
        List.for_all (fun q -> Plan.select t q = naive t q) queries
      in
      agree ()
      && List.for_all
           (fun (op, who, age) ->
             (match op with
             | 0 ->
                 ignore
                   (Table.insert t
                      [| Value.Str (Printf.sprintf "n%02d-%02d" who age);
                         Value.Int age; Value.Str "/bin/sh" |])
             | 1 ->
                 (* renames move a row between prefix ranges *)
                 ignore
                   (Plan.set_fields t
                      (Pred.eq_str "name" (Printf.sprintf "u%02d" who))
                      [ ("name", Value.Str (Printf.sprintf "n%02d-%02d" who age)) ])
             | _ ->
                 ignore
                   (Plan.delete t
                      (Pred.eq_str "name" (Printf.sprintf "u%02d" who))));
             agree ())
           script)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "value boxes dedup" `Quick test_value_boxes;
    Alcotest.test_case "insert interns rows" `Quick test_insert_interns_rows;
    Alcotest.test_case "update interns rows" `Quick test_update_interns_rows;
    Alcotest.test_case "sharing survives backup restore" `Quick
      test_backup_restore_preserves_sharing;
    Alcotest.test_case "sharing survives journal replay" `Quick
      test_journal_replay_preserves_sharing;
    Alcotest.test_case "sorted view after clear" `Quick
      test_sorted_after_clear;
    QCheck_alcotest.to_alcotest prop_sorted_prefix_model;
  ]
