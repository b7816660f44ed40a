(* Invariants of the synthetic campus and of the Mdb layer it is built
   through: resource allocation, uniqueness, load balancing. *)

open Relation

let build () =
  let clock = ref 568_000_000 in
  let mdb = Moira.Mdb.create ~clock:(fun () -> !clock) in
  let kdc = Krb.Kdc.create ~clock:(fun () -> !clock) () in
  let glue = Moira.Glue.create ~mdb ~registry:(Moira.Catalog.make ()) () in
  let built =
    Workload.Population.build ~glue ~kdc Workload.Population.small
  in
  (mdb, kdc, glue, built)

let test_every_user_fully_provisioned () =
  let mdb, _, glue, built = build () in
  Array.iter
    (fun login ->
      (* active *)
      (match Moira.Glue.query glue ~name:"get_user_by_login" [ login ] with
      | Ok [ row ] ->
          Alcotest.(check string) (login ^ " active") "1" (List.nth row 6)
      | _ -> Alcotest.failf "%s missing" login);
      (* pobox *)
      (match Moira.Glue.query glue ~name:"get_pobox" [ login ] with
      | Ok [ row ] ->
          Alcotest.(check string) (login ^ " pobox") "POP" (List.nth row 1)
      | _ -> Alcotest.failf "%s pobox" login);
      (* own group list *)
      Alcotest.(check bool) (login ^ " group") true
        (Moira.Lookup.list_id mdb login <> None);
      (* home filesystem with quota *)
      (match Moira.Glue.query glue ~name:"get_filesys_by_label" [ login ] with
      | Ok (row :: _) ->
          Alcotest.(check string) (login ^ " homedir") "HOMEDIR"
            (List.nth row 10)
      | _ -> Alcotest.failf "%s filesystem" login);
      match Moira.Glue.query glue ~name:"get_nfs_quota" [ login; login ] with
      | Ok (_ :: _) -> ()
      | _ -> Alcotest.failf "%s quota" login)
    built.Workload.Population.logins

let test_unique_uids_and_gids () =
  let mdb, _, _, _ = build () in
  let users = Moira.Mdb.table mdb "users" in
  let seen = Hashtbl.create 64 in
  Table.fold users ~init:() ~f:(fun () _ row ->
      let uid = Value.int (Table.field users row "uid") in
      if Hashtbl.mem seen uid then Alcotest.failf "duplicate uid %d" uid;
      Hashtbl.replace seen uid ());
  let lists = Moira.Mdb.table mdb "list" in
  let seen_gid = Hashtbl.create 64 in
  Table.fold lists ~init:() ~f:(fun () _ row ->
      if Value.bool (Table.field lists row "grouplist") then begin
        let gid = Value.int (Table.field lists row "gid") in
        if gid > 0 then begin
          if Hashtbl.mem seen_gid gid then
            Alcotest.failf "duplicate gid %d" gid;
          Hashtbl.replace seen_gid gid ()
        end
      end)

let test_pop_load_balanced () =
  let mdb, _, _, built = build () in
  let users = Moira.Mdb.table mdb "users" in
  let counts = Hashtbl.create 4 in
  Table.fold users ~init:() ~f:(fun () _ row ->
      if Value.str (Table.field users row "potype") = "POP" then begin
        let m = Value.int (Table.field users row "pop_id") in
        Hashtbl.replace counts m
          (1 + Option.value (Hashtbl.find_opt counts m) ~default:0)
      end);
  (* lint: allow unsorted-fold -- only the length, min and max of the loads are read *)
  let loads = Hashtbl.fold (fun _ n acc -> n :: acc) counts [] in
  Alcotest.(check int) "every PO used"
    (Array.length built.Workload.Population.pop_machines)
    (List.length loads);
  let mn = List.fold_left min max_int loads
  and mx = List.fold_left max 0 loads in
  Alcotest.(check bool) "balanced within 2" true (mx - mn <= 2);
  (* the serverhost value1 counters agree with reality *)
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  Table.fold shosts ~init:() ~f:(fun () _ row ->
      if Value.str (Table.field shosts row "service") = "POP" then begin
        let m = Value.int (Table.field shosts row "mach_id") in
        Alcotest.(check int) "value1 = real load"
          (Option.value (Hashtbl.find_opt counts m) ~default:0)
          (Value.int (Table.field shosts row "value1"))
      end)

let test_nfs_allocation_consistent () =
  let mdb, _, _, _ = build () in
  (* per-partition allocated = sum of quotas on it *)
  let nfsphys = Moira.Mdb.table mdb "nfsphys" in
  let nfsquota = Moira.Mdb.table mdb "nfsquota" in
  Table.fold nfsphys ~init:() ~f:(fun () _ prow ->
      let phys_id = Value.int (Table.field nfsphys prow "nfsphys_id") in
      let allocated = Value.int (Table.field nfsphys prow "allocated") in
      let total =
        List.fold_left
          (fun acc (_, q) ->
            acc + Value.int (Table.field nfsquota q "quota"))
          0
          (Plan.select nfsquota (Pred.eq_int "phys_id" phys_id))
      in
      Alcotest.(check int) "allocated = sum of quotas" total allocated;
      Alcotest.(check bool) "within capacity" true
        (allocated <= Value.int (Table.field nfsphys prow "size")))

let test_kerberos_principals_exist () =
  let _, kdc, _, built = build () in
  Array.iter
    (fun login ->
      Alcotest.(check bool) (login ^ " principal") true
        (Krb.Kdc.principal_exists kdc login))
    built.Workload.Population.logins

let test_unregistered_stubs () =
  let mdb, _, _, built = build () in
  let users = Moira.Mdb.table mdb "users" in
  let stubs = Plan.select users (Pred.eq_int "status" 0) in
  Alcotest.(check int) "stub count"
    built.Workload.Population.spec.Workload.Population.unregistered
    (List.length stubs);
  List.iter
    (fun (_, row) ->
      let login = Value.str (Table.field users row "login") in
      Alcotest.(check bool) "hash login" true (login.[0] = '#'))
    stubs

let test_mdb_alloc_and_intern () =
  let mdb, _, _, _ = build () in
  let a = Moira.Mdb.alloc_id mdb "users_id" in
  let b = Moira.Mdb.alloc_id mdb "users_id" in
  Alcotest.(check int) "monotonic" (a + 1) b;
  let s1 = Moira.Mdb.intern_string mdb "x@y.edu" in
  let s2 = Moira.Mdb.intern_string mdb "x@y.edu" in
  Alcotest.(check int) "interned once" s1 s2;
  Alcotest.(check (option string)) "reverse lookup" (Some "x@y.edu")
    (Moira.Mdb.string_of_id mdb s1);
  Alcotest.(check bool) "valid type" true
    (Moira.Mdb.valid_type mdb ~field:"pobox" "POP");
  Alcotest.(check bool) "invalid type" false
    (Moira.Mdb.valid_type mdb ~field:"pobox" "PIGEON");
  Alcotest.(check bool) "type_values" true
    (List.mem "SMTP" (Moira.Mdb.type_values mdb ~field:"pobox"))

let test_deterministic_build () =
  let _, _, glue1, b1 = build () in
  let _, _, glue2, b2 = build () in
  Alcotest.(check bool) "same logins" true
    (b1.Workload.Population.logins = b2.Workload.Population.logins);
  let dump g = Relation.Backup.dump (Moira.Mdb.db (Moira.Glue.mdb g)) in
  Alcotest.(check bool) "identical databases" true (dump glue1 = dump glue2)

let suite =
  [
    Alcotest.test_case "every user provisioned" `Quick
      test_every_user_fully_provisioned;
    Alcotest.test_case "unique uids/gids" `Quick test_unique_uids_and_gids;
    Alcotest.test_case "POP load balanced" `Quick test_pop_load_balanced;
    Alcotest.test_case "NFS allocation consistent" `Quick
      test_nfs_allocation_consistent;
    Alcotest.test_case "kerberos principals" `Quick
      test_kerberos_principals_exist;
    Alcotest.test_case "unregistered stubs" `Quick test_unregistered_stubs;
    Alcotest.test_case "mdb alloc/intern" `Quick test_mdb_alloc_and_intern;
    Alcotest.test_case "deterministic build" `Quick test_deterministic_build;
  ]
