(* The extensibility requirement of paper section 4: "as new services
   are added, the mechanism which supports those services must be easily
   added."  This test adds a brand-new managed service — FINGER, a
   campus directory file — using only the public APIs, and is the
   executable form of the walkthrough in HACKING.md. *)

open Workload
open Relation

(* 1. the generator: a new extract over existing relations *)
let finger_generator =
  Dcm.Gen.monolithic ~service:"FINGER"
    ~watches:[ Dcm.Gen.watch ~columns:[ "modtime"; "fmodtime" ] "users" ]
    (fun glue ->
      let mdb = Moira.Glue.mdb glue in
      let users = Moira.Mdb.table mdb "users" in
      let lines = ref [] in
      List.iter
        (fun (_, row) ->
          lines :=
            Printf.sprintf "%s:%s:%s"
              (Value.str (Table.field users row "login"))
              (Value.str (Table.field users row "fullname"))
              (Value.str (Table.field users row "office_phone"))
            :: !lines)
        (Plan.select users (Pred.eq_int "status" 1));
      {
        Dcm.Gen.common =
          [
            ( "directory",
              Dcm.Sink.of_string
                (String.concat "\n" (List.sort compare !lines) ^ "\n") );
          ];
        per_host = [];
      })

let test_new_service_end_to_end () =
  let tb = Testbed.create () in
  let glue = tb.Testbed.glue in
  let target_machine = tb.Testbed.built.Population.mail_hub in

  (* 2. register the service and its host in the database, through the
     ordinary query handles *)
  let must name args =
    match Moira.Glue.query glue ~name args with
    | Ok _ -> ()
    | Error c -> Alcotest.fail (Comerr.Com_err.error_message c)
  in
  must "add_server_info"
    [ "FINGER"; "360"; "/etc/finger.out"; "finger.sh"; "UNIQUE"; "1";
      "LIST"; "moira-admins" ];
  must "add_server_host_info" [ "FINGER"; target_machine; "1"; "0"; "0"; "" ];

  (* 3. teach the target host how to install the file *)
  let host = Testbed.host tb target_machine in
  let up = Dcm.Update.serve host in
  Dcm.Update.register_script up ~name:"finger.sh"
    (Dcm.Update.install_files host ~dir:"/etc/athena" ());

  (* 4. run a DCM that knows the new generator *)
  let dcm =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:tb.Testbed.built.Population.moira_machine ~glue
      ~generators:(finger_generator :: Dcm.Manager.standard_generators)
      ()
  in
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  ignore (Dcm.Manager.run dcm);

  (* the directory file landed and contains every active user *)
  let fs = Netsim.Host.fs host in
  (match Netsim.Vfs.read fs ~path:"/etc/athena/directory" with
  | Some contents ->
      Array.iter
        (fun login ->
          Alcotest.(check bool) (login ^ " listed") true
            (List.exists
               (fun l ->
                 String.length l > String.length login
                 && String.sub l 0 (String.length login) = login)
               (String.split_on_char '\n' contents)))
        tb.Testbed.built.Population.logins
  | None -> Alcotest.fail "directory file not installed");

  (* incremental behaviour comes for free: nothing changed, so the next
     due pass is MR_NO_CHANGE *)
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run dcm in
  (match
     (List.find
        (fun s -> s.Dcm.Manager.service = "FINGER")
        report.Dcm.Manager.services)
       .Dcm.Manager.gen
   with
  | Dcm.Manager.No_change -> ()
  | _ -> Alcotest.fail "no-change suppression missing for new service");
  (* ...and a finger change regenerates *)
  must "update_finger_by_login"
    [ tb.Testbed.built.Population.logins.(0); "New Name"; ""; ""; "";
      ""; "x3-1234"; ""; "" ];
  Sim.Engine.advance tb.Testbed.engine (7 * 3600 * 1000);
  let report = Dcm.Manager.run dcm in
  match
    (List.find
       (fun s -> s.Dcm.Manager.service = "FINGER")
       report.Dcm.Manager.services)
      .Dcm.Manager.gen
  with
  | Dcm.Manager.Generated _ -> ()
  | _ -> Alcotest.fail "finger change not picked up"

let suite =
  [
    Alcotest.test_case "new managed service end to end" `Quick
      test_new_service_end_to_end;
  ]
