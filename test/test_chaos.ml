(* Directed fault-tolerance tests for the update pipeline (section
   5.7.1 / 5.9): crash-recovery sweep, soft-failure quarantine with
   deduplicated notification, notification fallback, lock hygiene under
   generator exceptions, and convergence under sustained message loss.
   The statistical end of the same story runs in `bench chaos`. *)

open Workload
open Relation

(* A retry policy scaled for 15-minute test cycles: quarantine after two
   consecutive failed cycles, negligible backoff. *)
let fast_quarantine =
  {
    Dcm.Manager.op_attempts = 2;
    push_attempts = 1;
    backoff_base_s = 1;
    backoff_max_s = 1;
    backoff_jitter = 0.0;
    quarantine_after = 2;
  }

let shost_field tb ~service ~machine col =
  let mdb = tb.Testbed.mdb in
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  let mach_id =
    match Moira.Lookup.machine_id mdb machine with
    | Some id -> id
    | None -> Alcotest.failf "no machine %s" machine
  in
  match
    Plan.select_one shosts
      (Pred.conj
         [ Pred.eq_str "service" service; Pred.eq_int "mach_id" mach_id ])
  with
  | Some (_, row) -> Table.field shosts row col
  | None -> Alcotest.failf "no serverhosts row %s/%s" service machine

(* Every non-POP serverhosts row except [but] shows success and no
   hosterror. *)
let assert_fleet_converged ?but tb =
  let shosts = Moira.Mdb.table tb.Testbed.mdb "serverhosts" in
  Table.fold shosts ~init:() ~f:(fun () _ row ->
      let service = Value.str (Table.field shosts row "service") in
      let machine =
        Option.value
          (Moira.Lookup.machine_name tb.Testbed.mdb
             (Value.int (Table.field shosts row "mach_id")))
          ~default:"?"
      in
      if service <> "POP" && but <> Some (service, machine) then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s on %s has no hosterror" service machine)
          true
          (Value.int (Table.field shosts row "hosterror") = 0);
        Alcotest.(check bool)
          (Printf.sprintf "%s on %s succeeded" service machine)
          true
          (Value.bool (Table.field shosts row "success"))
      end)

(* --- crash-recovery sweep ------------------------------------------- *)

let test_recovery_sweep_clears_crash_leftovers () =
  let tb = Testbed.create () in
  ignore (Dcm.Manager.run tb.Testbed.dcm);
  (* simulate a DCM that died mid-run: inprogress flags set in both
     tables, service and host locks still owned by "dcm" *)
  let mdb = tb.Testbed.mdb in
  let servers = Moira.Mdb.table mdb "servers" in
  let shosts = Moira.Mdb.table mdb "serverhosts" in
  ignore
    (Plan.set_fields servers
       (Pred.eq_str "name" "HESIOD")
       [ ("inprogress", Value.Bool true) ]);
  ignore
    (Plan.set_fields shosts
       (Pred.eq_str "service" "HESIOD")
       [ ("inprogress", Value.Bool true) ]);
  let locks = Moira.Mdb.locks mdb in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  Alcotest.(check bool) "stranded service lock taken" true
    (Lock.acquire locks ~key:"service:HESIOD" ~owner:"dcm" Lock.Exclusive);  (* lint: allow lock-protect -- seeding a stranded lock for the recovery sweep to release *)
  Alcotest.(check bool) "stranded host lock taken" true
    (Lock.acquire locks  (* lint: allow lock-protect -- seeding a stranded lock for the recovery sweep to release *)
       ~key:("host:HESIOD/" ^ hes_machine)
       ~owner:"dcm" Lock.Exclusive);
  let sweep = Dcm.Manager.recovery_sweep tb.Testbed.dcm in
  Alcotest.(check int) "servers rows cleared" 1
    sweep.Dcm.Manager.services_cleared;
  Alcotest.(check bool) "serverhosts rows cleared" true
    (sweep.Dcm.Manager.hosts_cleared >= 1);
  Alcotest.(check int) "orphaned locks released" 2
    sweep.Dcm.Manager.locks_released;
  (* flags really are gone, and the locks are free for the next cycle *)
  Alcotest.(check bool) "no inprogress servers row" true
    (Plan.select servers (Pred.eq_bool "inprogress" true) = []);
  Alcotest.(check bool) "no inprogress serverhosts row" true
    (Plan.select shosts (Pred.eq_bool "inprogress" true) = []);
  Alcotest.(check bool) "service lock free" true
    (Lock.acquire locks ~key:"service:HESIOD" ~owner:"probe" Lock.Exclusive);  (* lint: allow lock-protect -- probe asserts the lock is free; released on the next line *)
  Lock.release locks ~key:"service:HESIOD" ~owner:"probe";
  (* the next cycle completes unaided: a new change generates and
     propagates with no operator intervention *)
  Sim.Engine.advance tb.Testbed.engine 60_000;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/postcrash" ]);
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report.Dcm.Manager.services
  in
  (match hes.Dcm.Manager.gen with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "HESIOD did not regenerate after the sweep");
  (match List.assoc_opt hes_machine hes.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Updated _) -> ()
  | _ -> Alcotest.fail "host not updated after the sweep");
  assert_fleet_converged tb

(* --- quarantine escalation ------------------------------------------ *)

let test_quarantine_one_notification_per_incident () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Testbed.run_hours tb 3;
  (* the host is quarantined: hosterror set, errmsg says so *)
  Alcotest.(check bool) "hosterror set" true
    (Value.int (shost_field tb ~service:"HESIOD" ~machine:hes_machine
                  "hosterror")
    <> 0);
  let errmsg =
    Value.str
      (shost_field tb ~service:"HESIOD" ~machine:hes_machine "hosterrmsg")
  in
  Alcotest.(check bool) "errmsg names the quarantine" true
    (String.length errmsg >= 11 && String.sub errmsg 0 11 = "quarantined");
  (* exactly one zephyrgram for the whole incident, however long it
     lasts *)
  let z = List.assoc tb.Testbed.built.Population.zephyr_machines.(0)
      tb.Testbed.zephyrs
  in
  let quarantine_notices () =
    Zephyr.notices_for z ~cls:"MOIRA"
    |> List.filter (fun n ->
           let msg = n.Zephyr.message in
           let needle = "quarantined" in
           let rec find i =
             if i + String.length needle > String.length msg then false
             else String.sub msg i (String.length needle) = needle || find (i + 1)
           in
           find 0)
  in
  Alcotest.(check int) "one notice for the incident" 1
    (List.length (quarantine_notices ()));
  Testbed.run_hours tb 5;
  Alcotest.(check int) "still one notice hours later" 1
    (List.length (quarantine_notices ()));
  (* the quarantined host is excluded from scans: no retries burn the
     wire, and the rest of the fleet is unaffected *)
  assert_fleet_converged ~but:("HESIOD", hes_machine) tb;
  (* operator resets the error; the host recovers on the next cycles *)
  Netsim.Host.boot (Testbed.host tb hes_machine);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"set_server_host_internal"
       [ "HESIOD"; hes_machine; "1"; "0"; "0"; "0"; ""; "0"; "0" ]);
  Testbed.run_hours tb 1;
  assert_fleet_converged tb

(* --- notification fallback and drop accounting ---------------------- *)

let sum_notices tb =
  List.fold_left
    (fun (s, d) r ->
      (s + r.Dcm.Manager.notices_sent, d + r.Dcm.Manager.notices_dropped))
    (0, 0)
    (Dcm.Manager.reports tb.Testbed.dcm)

let test_notify_falls_back_to_mail () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  let zephyr_machine = tb.Testbed.built.Population.zephyr_machines.(0) in
  (* one clean cycle first, so the hub has its aliases file *)
  Testbed.run_minutes tb 20;
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Netsim.Host.crash (Testbed.host tb zephyr_machine);
  (* a change the dead hesiod host will fail to receive once its
     service's interval elapses *)
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/fallback" ]);
  Testbed.run_hours tb 8;
  let sent, dropped = sum_notices tb in
  (* the zephyr host is down, but the quarantine notices still reach the
     maintainers by mail: delivered, not silently lost *)
  Alcotest.(check bool) "notices delivered via mail fallback" true (sent >= 1);
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let z = List.assoc zephyr_machine tb.Testbed.zephyrs in
  Alcotest.(check int) "no zephyrgram landed (host was down)" 0
    (List.length (Zephyr.notices_for z ~cls:"MOIRA"))

let test_notify_drop_is_counted () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  let zephyr_machine = tb.Testbed.built.Population.zephyr_machines.(0) in
  let hub = tb.Testbed.built.Population.mail_hub in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  Netsim.Host.crash (Testbed.host tb zephyr_machine);
  Netsim.Host.crash (Testbed.host tb hub);
  Testbed.run_hours tb 3;
  let sent, dropped = sum_notices tb in
  Alcotest.(check int) "nothing deliverable" 0 sent;
  Alcotest.(check bool) "drops are counted, not silent" true (dropped >= 1)

(* --- lock hygiene under generator exceptions ------------------------ *)

let test_generator_exception_releases_lock () =
  let tb = Testbed.create () in
  let bad =
    Dcm.Gen.monolithic ~service:"HESIOD"
      ~watches:[ Dcm.Gen.watch "users" ]
      (fun _ -> failwith "generator exploded")
  in
  let dcm2 =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine
      ~glue:tb.Testbed.glue ~generators:[ bad ] ()
  in
  let report = Dcm.Manager.run dcm2 in
  (match report.Dcm.Manager.services with
  | [ { Dcm.Manager.gen = Dcm.Manager.Gen_failed msg; _ } ] ->
      Alcotest.(check bool) "failure message surfaced" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "exception did not surface as Gen_failed");
  (* neither the lock nor the inprogress flag leaked *)
  let locks = Moira.Mdb.locks tb.Testbed.mdb in
  Alcotest.(check bool) "service lock was released" true
    (Lock.acquire locks ~key:"service:HESIOD" ~owner:"probe" Lock.Exclusive);  (* lint: allow lock-protect -- probe asserts the lock is free; released on the next line *)
  Lock.release locks ~key:"service:HESIOD" ~owner:"probe";
  let servers = Moira.Mdb.table tb.Testbed.mdb "servers" in
  Alcotest.(check bool) "inprogress cleared" true
    (Plan.select servers (Pred.eq_bool "inprogress" true) = [])

(* --- host-lock contention is recorded ------------------------------- *)

let test_host_lock_failure_moves_ltt () =
  let tb = Testbed.create () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  let locks = Moira.Mdb.locks tb.Testbed.mdb in
  Alcotest.(check bool) "intruder holds the host lock" true
    (Lock.acquire locks  (* lint: allow lock-protect -- intruder holds the lock so the cycle must contend; released below *)
       ~key:("host:HESIOD/" ^ hes_machine)
       ~owner:"intruder" Lock.Exclusive);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Soft_failed _) -> ()
  | _ -> Alcotest.fail "locked host should soft-fail");
  (* the tuple records that the DCM tried: ltt moved, errmsg says why *)
  Alcotest.(check bool) "ltt moved" true
    (Value.int (shost_field tb ~service:"HESIOD" ~machine:hes_machine "ltt")
    > 0);
  Alcotest.(check string) "errmsg records the reason" "host locked"
    (Value.str (shost_field tb ~service:"HESIOD" ~machine:hes_machine
                  "hosterrmsg"));
  Lock.release locks ~key:("host:HESIOD/" ^ hes_machine) ~owner:"intruder"

(* --- restart resumes persisted retry state -------------------------- *)

(* The per-host failure count and backoff window live in the serverhosts
   value1/value2 columns, so a restarted DCM (a brand-new manager over
   the same database) must carry an incident forward: with
   quarantine_after = 2, one pre-restart failed cycle plus one
   post-restart failed cycle quarantines the host.  A DCM that forgot
   its state would merely soft-fail again. *)
let test_restart_resumes_retry_state () =
  let tb = Testbed.create ~retry:fast_quarantine () in
  let hes_machine = tb.Testbed.built.Population.hesiod_machines.(0) in
  Netsim.Host.crash (Testbed.host tb hes_machine);
  let report = Dcm.Manager.run tb.Testbed.dcm in
  let hes =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Soft_failed _) -> ()
  | _ -> Alcotest.fail "dead host should soft-fail before restart");
  Alcotest.(check int) "failure count persisted" 1
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value1"));
  Alcotest.(check bool) "backoff window persisted" true
    (Value.int (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value2")
    > 0);
  (* "restart": a fresh manager over the same database and network,
     created past the 1 s backoff window *)
  Sim.Engine.advance tb.Testbed.engine 5_000;
  let dcm2 =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine
      ~glue:tb.Testbed.glue ~retry:fast_quarantine ()
  in
  let report2 = Dcm.Manager.run dcm2 in
  let hes2 =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report2.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes2.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Quarantined _) -> ()
  | Some _ | None ->
      Alcotest.fail
        "restarted DCM forgot the failure count: second failure should \
         quarantine");
  Alcotest.(check bool) "hosterror set" true
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "hosterror")
    <> 0);
  (* the open incident is persisted too (negated count), so yet another
     restart stays quiet instead of re-notifying *)
  Alcotest.(check int) "notified incident persisted" (-2)
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value1"));
  (* operator reset clears the columns through the normal path *)
  Netsim.Host.boot (Testbed.host tb hes_machine);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"set_server_host_internal"
       [ "HESIOD"; hes_machine; "1"; "0"; "0"; "0"; ""; "0"; "0" ]);
  Sim.Engine.advance tb.Testbed.engine 5_000;
  let report3 = Dcm.Manager.run dcm2 in
  let hes3 =
    List.find
      (fun s -> s.Dcm.Manager.service = "HESIOD")
      report3.Dcm.Manager.services
  in
  (match List.assoc_opt hes_machine hes3.Dcm.Manager.hosts with
  | Some (Dcm.Manager.Updated _) -> ()
  | _ -> Alcotest.fail "host should recover after operator reset");
  Alcotest.(check int) "retry state cleared on success" 0
    (Value.int
       (shost_field tb ~service:"HESIOD" ~machine:hes_machine "value1"))

(* --- telemetry accounts for every protocol operation ----------------- *)

let test_telemetry_accounts_for_every_op () =
  let tb = Testbed.create () in
  Netsim.Net.set_drop_rate tb.Testbed.net 0.2;
  Netsim.Net.set_reply_drop_rate tb.Testbed.net 0.1;
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/counted" ]);
  Testbed.run_hours tb 6;
  let o = Testbed.obs tb in
  let ctr n = Option.value ~default:0 (Obs.find_counter o n) in
  let failed =
    List.fold_left
      (fun a (n, v) ->
        if Obs.glob_match "update.ops.failed.*" n then a + v else a)
      0 (Obs.counters o)
  in
  Alcotest.(check bool) "ops were sent" true (ctr "update.ops.sent" > 0);
  Alcotest.(check bool) "losses forced retries" true
    (ctr "update.ops.retried" > 0);
  (* every send ended exactly one way: acknowledged, re-sent, or counted
     against a named failure kind — nothing vanishes *)
  Alcotest.(check int) "sent = ok + retried + failed"
    (ctr "update.ops.sent")
    (ctr "update.ops.ok" + ctr "update.ops.retried" + failed)

(* --- convergence under sustained loss ------------------------------- *)

let test_converges_under_message_loss () =
  let tb = Testbed.create () in
  Netsim.Net.set_drop_rate tb.Testbed.net 0.2;
  Netsim.Net.set_reply_drop_rate tb.Testbed.net 0.1;
  (* a partition separates half the fleet for 90 minutes mid-run *)
  let managed = Testbed.managed_machines tb in
  let half = List.filteri (fun i _ -> i mod 2 = 0) managed in
  Netsim.Net.partition_window tb.Testbed.net ~hosts:half
    ~at:(Sim.Engine.now tb.Testbed.engine + (2 * 3600 * 1000))
    ~duration_ms:(90 * 60 * 1000);
  ignore
    (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
       [ tb.Testbed.built.Population.logins.(0); "/bin/lossy" ]);
  (* loss stays on the whole time: retries and backoff must carry the
     fleet to convergence anyway *)
  Testbed.run_hours tb 30;
  assert_fleet_converged tb;
  let _, hes = Testbed.first_hesiod tb in
  (match
     Hesiod.Hes_server.resolve_local hes
       ~name:tb.Testbed.built.Population.logins.(0) ~ty:"passwd"
   with
  | [ line ] ->
      let suffix = "/bin/lossy" in
      let n = String.length line and m = String.length suffix in
      Alcotest.(check string) "change propagated despite loss" suffix
        (String.sub line (n - m) m)
  | _ -> Alcotest.fail "user missing from hesiod");
  let stats = Netsim.Net.stats tb.Testbed.net in
  Alcotest.(check bool) "losses actually happened" true
    (stats.Netsim.Net.req_dropped > 0 && stats.Netsim.Net.reply_dropped > 0)

let suite =
  [
    Alcotest.test_case "recovery sweep clears crash leftovers" `Quick
      test_recovery_sweep_clears_crash_leftovers;
    Alcotest.test_case "quarantine: one notification per incident" `Quick
      test_quarantine_one_notification_per_incident;
    Alcotest.test_case "notify falls back to mail" `Quick
      test_notify_falls_back_to_mail;
    Alcotest.test_case "notify drop is counted" `Quick
      test_notify_drop_is_counted;
    Alcotest.test_case "generator exception releases lock" `Quick
      test_generator_exception_releases_lock;
    Alcotest.test_case "host lock failure moves ltt" `Quick
      test_host_lock_failure_moves_ltt;
    Alcotest.test_case "restart resumes persisted retry state" `Quick
      test_restart_resumes_retry_state;
    Alcotest.test_case "telemetry accounts for every op" `Quick
      test_telemetry_accounts_for_every_op;
    Alcotest.test_case "converges under message loss" `Quick
      test_converges_under_message_loss;
  ]
