(* End-to-end scenarios across the whole simulated Athena — the flows
   the paper's introduction motivates (section 3), plus disaster
   recovery (sections 5.2.2 and 5.9.1). *)

open Workload

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Example 2 of section 3: a user adds themselves to a public mailing
   list from any workstation; "sometime later, the mailing lists file on
   the central mail hub will be updated to show this change". *)
let test_public_maillist_flow () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 25; (* initial propagation *)
  let login = tb.Testbed.built.Population.logins.(5) in
  let ws = tb.Testbed.built.Population.workstation_machines.(1) in
  (* create a public list as admin *)
  let a = Testbed.admin_client tb ~src:ws in
  (match
     Moira.Mr_client.mr_query a ~name:"add_list"
       [ "hoofers"; "1"; "1"; "0"; "1"; "0"; "-1"; "LIST"; "moira-admins";
         "outing club" ] ~callback:(fun _ -> ())
   with
  | 0 -> ()
  | c -> Alcotest.fail (Comerr.Com_err.error_message c));
  (* the user adds herself over RPC *)
  let u = Testbed.user_client tb ~src:ws ~login in
  (match
     Moira.Mr_client.mr_query u ~name:"add_member_to_list"
       [ "hoofers"; "USER"; login ] ~callback:(fun _ -> ())
   with
  | 0 -> ()
  | c -> Alcotest.fail (Comerr.Com_err.error_message c));
  (* not yet on the hub *)
  let hub = Testbed.host tb tb.Testbed.built.Population.mail_hub in
  let aliases () =
    Option.value
      (Netsim.Vfs.read (Netsim.Host.fs hub) ~path:"/usr/lib/aliases")
      ~default:""
  in
  Alcotest.(check bool) "not yet propagated" false
    (contains "hoofers" (aliases ()));
  (* a day later it is *)
  Testbed.run_hours tb 25;
  let a = aliases () in
  Alcotest.(check bool) "list on hub" true (contains "hoofers:" a);
  Alcotest.(check bool) "user in list" true (contains login a)

(* Example 1 of section 3: the accounts administrator changes a disk
   quota from her workstation; the change automatically lands on the
   proper NFS server. *)
let test_quota_change_flow () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 13;
  let login = tb.Testbed.built.Population.logins.(2) in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  (* find the user's uid and home server *)
  let uid =
    match
      Moira.Glue.query tb.Testbed.glue ~name:"get_user_by_login" [ login ]
    with
    | Ok [ row ] -> List.nth row 1
    | _ -> Alcotest.fail "lookup"
  in
  let home_machine =
    match
      Moira.Glue.query tb.Testbed.glue ~name:"get_filesys_by_label" [ login ]
    with
    | Ok (row :: _) -> List.nth row 2
    | _ -> Alcotest.fail "no home filesystem"
  in
  (* admin updates the quota over RPC *)
  let a = Testbed.admin_client tb ~src:ws in
  (match
     Moira.Mr_client.mr_query a ~name:"update_nfs_quota"
       [ login; login; "999" ] ~callback:(fun _ -> ())
   with
  | 0 -> ()
  | c -> Alcotest.fail (Comerr.Com_err.error_message c));
  (* after the NFS propagation interval, the server has it *)
  Testbed.run_hours tb 13;
  let fs = Netsim.Host.fs (Testbed.host tb home_machine) in
  match Netsim.Vfs.read fs ~path:("/var/moira/quotas/" ^ uid) with
  | Some q -> Alcotest.(check string) "quota on server" "999" q
  | None -> Alcotest.fail "quota file missing on home server"

(* Backup, wipe, restore, journal replay (section 5.2.2). *)
let test_disaster_recovery () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 1;
  let mdb = tb.Testbed.mdb in
  let login = tb.Testbed.built.Population.logins.(0) in
  (* nightly.sh: take the dump *)
  Moira.Mdb.sync_tblstats mdb;
  let dump = Relation.Backup.dump (Moira.Mdb.db mdb) in
  let dump_time = Moira.Mdb.now mdb in
  (* changes after the dump, recorded in the journal *)
  Testbed.run_minutes tb 10;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ login; "/bin/after-dump" ]);
  (* catastrophe: restore into a fresh database *)
  let clock = Sim.Engine.clock_sec tb.Testbed.engine in
  let mdb2 = Moira.Mdb.create ~clock in
  Relation.Backup.restore (Moira.Mdb.db mdb2) dump;
  (* the dump alone loses the late change *)
  let shell_of m =
    match
      Moira.Glue.query
        (Moira.Glue.create ~mdb:m ~registry:(Moira.Catalog.make ()) ())
        ~name:"get_user_by_login" [ login ]
    with
    | Ok [ row ] -> List.nth row 2
    | _ -> Alcotest.fail "lookup in restored db"
  in
  Alcotest.(check bool) "dump is stale" true
    (shell_of mdb2 <> "/bin/after-dump");
  (* replaying the journal closes the gap *)
  let glue2 =
    Moira.Glue.create ~mdb:mdb2 ~registry:(Moira.Catalog.make ()) ()
  in
  let replayed =
    Relation.Journal.replay (Moira.Mdb.journal mdb) ~since:dump_time
      ~f:(fun e ->
        ignore
          (Moira.Glue.query glue2 ~name:e.Relation.Journal.query
             e.Relation.Journal.args))
  in
  Alcotest.(check bool) "something replayed" true (replayed > 0);
  Alcotest.(check string) "change recovered" "/bin/after-dump"
    (shell_of mdb2)

(* The account lifecycle end to end, via the RPC interface only. *)
let test_admin_full_lifecycle_via_rpc () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 7;
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let a = Testbed.admin_client tb ~src:ws in
  let q name args =
    match Moira.Mr_client.mr_query_list a ~name args with
    | Ok rows -> rows
    | Error c ->
        Alcotest.failf "%s: %s" name (Comerr.Com_err.error_message c)
  in
  (* create, register, activate *)
  ignore
    (q "add_user"
       [ Moira.Mrconst.unique_login; "9999"; "/bin/csh"; "Lifecycle"; "Liz";
         ""; "0"; "hash9999"; "1992" ]);
  ignore (q "register_user" [ "9999"; "liz"; "1" ]);
  ignore (q "update_user_status" [ "liz"; "1" ]);
  (* propagation makes her resolvable *)
  Testbed.run_hours tb 7;
  let _, hes = Testbed.first_hesiod tb in
  (match Hesiod.Hes_server.resolve_local hes ~name:"liz" ~ty:"passwd" with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "liz not in hesiod");
  (* deactivate; after the next propagation she is gone from extracts *)
  ignore (q "update_user_status" [ "liz"; "3" ]);
  Testbed.run_hours tb 7;
  match Hesiod.Hes_server.resolve_local hes ~name:"liz" ~ty:"passwd" with
  | [] -> ()
  | _ -> Alcotest.fail "deactivated user still in hesiod"

(* The cluster data reaches hesiod including the pseudo-cluster CNAME
   for machines in several clusters. *)
let test_cluster_data_in_hesiod () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 7;
  let _, hes = Testbed.first_hesiod tb in
  (* machine 0 of the small spec is in clusters 1 and 2 (i mod 17 = 0) *)
  let m = tb.Testbed.built.Population.workstation_machines.(0) in
  match Hesiod.Hes_server.resolve_local hes ~name:m ~ty:"cluster" with
  | data :: _ ->
      Alcotest.(check bool) "cluster data nonempty" true
        (String.length data > 0)
  | [] -> Alcotest.fail "no cluster data for multi-cluster machine"

(* Moira is "tamper-proof": a replayed authenticator does not yield a
   session (section 4 requirements). *)
let test_replay_attack_over_rpc () =
  let tb = Testbed.create () in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let kdc = tb.Testbed.kdc in
  let creds =
    match
      Krb.Kdc.get_ticket kdc ~principal:"admin"
        ~password:tb.Testbed.built.Population.admin_password ~service:"moira"
    with
    | Ok c -> c
    | Error c -> Alcotest.fail (Comerr.Com_err.error_message c)
  in
  let authenticator = Krb.Kdc.mk_req kdc creds in
  let send_auth () =
    match
      Gdb.Client.connect tb.Testbed.net ~src:ws
        ~dst:tb.Testbed.built.Population.moira_machine ~service:"moira"
    with
    | Ok conn -> (
        match Gdb.Client.call conn ~op:17 (* op_auth *) [ authenticator; "evil" ] with
        | Ok (code, _) -> code
        | Error _ -> -1)
    | Error _ -> -1
  in
  Alcotest.(check int) "first use accepted" 0 (send_auth ());
  Alcotest.(check int) "replay rejected" Krb.Krb_err.replay (send_auth ())

(* The attach client: the full consumption pipeline of Figure 1, from
   the Moira database through the DCM and hesiod to a workstation. *)
let test_attach_client () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 7;
  let ws = tb.Testbed.built.Population.workstation_machines.(3) in
  let locker = tb.Testbed.built.Population.logins.(1) in
  (match Workload.Attach.attach tb ~ws ~locker with
  | Ok fs ->
      Alcotest.(check string) "nfs" "NFS" fs.Workload.Attach.fstype;
      Alcotest.(check string) "mount point" ("/mit/" ^ locker)
        fs.Workload.Attach.mount;
      Alcotest.(check string) "write access" "w" fs.Workload.Attach.access
  | Error e -> Alcotest.fail (Workload.Attach.error_to_string e));
  Alcotest.(check int) "mtab has it" 1
    (List.length (Workload.Attach.attached tb ~ws));
  (* unknown locker *)
  match Workload.Attach.attach tb ~ws ~locker:"nonsuch" with
  | Error Workload.Attach.Unknown_locker -> ()
  | _ -> Alcotest.fail "unknown locker attached"

(* The KLOGIN extension generator: hostaccess rows become per-host
   .klogin files. *)
let test_klogin_generator () =
  let tb = Testbed.create () in
  let glue = tb.Testbed.glue in
  let m = tb.Testbed.built.Population.nfs_machines.(0) in
  ignore
    (Moira.Glue.query glue ~name:"add_server_host_access"
       [ m; "LIST"; "moira-admins" ]);
  let out = Dcm.Gen_klogin.generator.Dcm.Gen.generate glue in
  match out.Dcm.Gen.per_host with
  | [ (machine, [ (".klogin", contents) ]) ] ->
      Alcotest.(check string) "host" m machine;
      Alcotest.(check string) "admin principal"
        (tb.Testbed.built.Population.admin ^ "\n")
        (Dcm.Sink.to_string contents)
  | _ -> Alcotest.fail "expected one .klogin"

(* nightly.sh: rotation of the three on-line backups, and a restore
   from the latest plus journal replay. *)
let test_nightly_backup_rotation () =
  let tb = Testbed.create () in
  ignore (Workload.Backup_job.install tb ~every_hours:24);
  Alcotest.(check int) "none yet" 0 (Workload.Backup_job.generations tb);
  Testbed.run_hours tb 25;
  Alcotest.(check int) "one" 1 (Workload.Backup_job.generations tb);
  Testbed.run_hours tb 24;
  Testbed.run_hours tb 24;
  Testbed.run_hours tb 24;
  (* capped at three on line *)
  Alcotest.(check int) "three max" 3 (Workload.Backup_job.generations tb);
  (* the latest restores into a fresh database *)
  let mdb2 =
    Moira.Mdb.create ~clock:(Sim.Engine.clock_sec tb.Testbed.engine)
  in
  (match Workload.Backup_job.restore_latest tb mdb2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "users restored"
    (Relation.Table.cardinal (Moira.Mdb.table tb.Testbed.mdb "users"))
    (Relation.Table.cardinal (Moira.Mdb.table mdb2 "users"));
  (* the dumped journal is readable *)
  match Workload.Backup_job.latest_journal tb with
  | Some j ->
      Alcotest.(check bool) "journal non-empty" true
        (Relation.Journal.length j > 0)
  | None -> Alcotest.fail "no journal in backup"

(* The server daemon's on-disk journal: committed changes reach the
   file immediately and survive a Moira host crash; after a crash +
   restore, the on-disk journal is the replay source. *)
let test_on_disk_journal () =
  let tb = Testbed.create () in
  let login = tb.Testbed.built.Population.logins.(0) in
  let journal = Moira.Mdb.journal tb.Testbed.mdb in
  let booted = Relation.Journal.length journal in
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ login; "/bin/disk-journal" ]);
  (* the entry is on disk already *)
  (match Testbed.journal_file tb with
  | Some j ->
      Alcotest.(check bool) "entry on disk" true
        (List.exists
           (fun e ->
             e.Relation.Journal.query = "update_user_shell"
             && e.Relation.Journal.args = [ login; "/bin/disk-journal" ])
           (Relation.Journal.entries j))
  | None -> Alcotest.fail "no journal file");
  (* the tee writes the in-memory journal's own line codec, byte for
     byte: the file is [Journal.to_lines] of everything committed since
     the server came up (the population load precedes the tee) *)
  let moira = Testbed.host tb tb.Testbed.built.Population.moira_machine in
  let since_boot = Relation.Journal.create () in
  List.iter
    (Relation.Journal.append since_boot)
    (Relation.Journal.entries_from journal ~seq:booted);
  Alcotest.(check (option string))
    "file = Journal.to_lines of the in-memory journal"
    (Some (Relation.Journal.to_lines since_boot))
    (Netsim.Vfs.read (Netsim.Host.fs moira) ~path:"/site/sms/journal");
  (* and it survives a crash of the Moira machine *)
  Netsim.Host.crash moira;
  Netsim.Host.boot moira;
  match Testbed.journal_file tb with
  | Some j ->
      Alcotest.(check bool) "journal survives crash" true
        (Relation.Journal.length j > 0)
  | None -> Alcotest.fail "journal lost in crash"

(* Section 4: "Moira does not have to be 100% available.  Moira provides
   timely information to other services which are 100% available" — with
   the database machine down, every distributed service keeps working
   from its local files. *)
let test_services_survive_moira_outage () =
  let tb = Testbed.create () in
  Testbed.run_hours tb 25; (* everything propagated *)
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  let login = tb.Testbed.built.Population.logins.(0) in
  Netsim.Host.crash (Testbed.host tb tb.Testbed.built.Population.moira_machine);
  (* hesiod still answers *)
  let hes_machine, _ = Testbed.first_hesiod tb in
  (match
     Hesiod.Hes_server.resolve tb.Testbed.net ~src:ws ~server:hes_machine
       ~name:login ~ty:"passwd"
   with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "hesiod died with moira");
  (* attach still works end to end *)
  (match Workload.Attach.attach tb ~ws ~locker:login with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Workload.Attach.error_to_string e));
  (* mail still flows *)
  (match
     Testbed.send_mail tb ~src:ws ~sender:"x@y.z" ~rcpt:login ~body:"up!"
   with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "mail died with moira");
  (match Testbed.read_mail tb ~ws ~login with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "pobox retrieval died with moira");
  (* admin programs, of course, cannot reach the database *)
  let c = Testbed.client tb ~src:ws in
  Alcotest.(check bool) "moira itself is down" true
    (Moira.Mr_client.mr_connect c
       ~dst:tb.Testbed.built.Population.moira_machine
    <> 0);
  (* and when Moira returns, updates resume on schedule *)
  Netsim.Host.boot (Testbed.host tb tb.Testbed.built.Population.moira_machine);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ login; "/bin/post-outage" ]);
  Testbed.run_hours tb 7;
  let _, hes = Testbed.first_hesiod tb in
  match Hesiod.Hes_server.resolve_local hes ~name:login ~ty:"passwd" with
  | [ line ] ->
      let suffix = "/bin/post-outage" in
      let n = String.length line and m = String.length suffix in
      Alcotest.(check string) "updates resumed" suffix
        (String.sub line (n - m) m)
  | _ -> Alcotest.fail "resolve after outage"

let suite =
  [
    Alcotest.test_case "public maillist flow" `Quick
      test_public_maillist_flow;
    Alcotest.test_case "quota change flow" `Quick test_quota_change_flow;
    Alcotest.test_case "disaster recovery" `Quick test_disaster_recovery;
    Alcotest.test_case "lifecycle via RPC" `Quick
      test_admin_full_lifecycle_via_rpc;
    Alcotest.test_case "cluster data in hesiod" `Quick
      test_cluster_data_in_hesiod;
    Alcotest.test_case "replay attack rejected" `Quick
      test_replay_attack_over_rpc;
    Alcotest.test_case "attach client" `Quick test_attach_client;
    Alcotest.test_case "klogin generator" `Quick test_klogin_generator;
    Alcotest.test_case "nightly backup rotation" `Quick
      test_nightly_backup_rotation;
    Alcotest.test_case "on-disk journal" `Quick test_on_disk_journal;
    Alcotest.test_case "services survive Moira outage" `Quick
      test_services_survive_moira_outage;
  ]
