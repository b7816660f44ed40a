(* Robustness fuzzing: the Moira server, the update service and the
   registration server must survive arbitrary bytes on their ports —
   the paper's "tamper-proof ... safe from malicious network attacks"
   requirement, checked the blunt way. *)

open Workload

let random_bytes rng n =
  String.init n (fun _ -> Char.chr (Sim.Rng.int rng 256))

(* also fuzz with structurally valid frames carrying junk fields *)
let junk_frame rng =
  Gdb.Wire.encode_request
    {
      Gdb.Wire.version =
        (if Sim.Rng.bool rng then Gdb.Wire.protocol_version
         else Sim.Rng.int rng 100);
      conn = Sim.Rng.int rng 1000;
      op = Sim.Rng.int rng 64;
      args =
        List.init (Sim.Rng.int rng 5) (fun _ ->
            random_bytes rng (Sim.Rng.int rng 40));
      ctx =
        (if Sim.Rng.bool rng then "" else random_bytes rng (Sim.Rng.int rng 30));
    }

let fuzz_service ~service () =
  let tb = Testbed.create () in
  let rng = Sim.Rng.create 1234 in
  let dsts =
    tb.Testbed.built.Population.moira_machine
    :: Array.to_list tb.Testbed.built.Population.hesiod_machines
  in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  for _ = 1 to 300 do
    let payload =
      if Sim.Rng.bool rng then random_bytes rng (Sim.Rng.int rng 200)
      else junk_frame rng
    in
    let dst = Sim.Rng.pick_list rng dsts in
    (* any result is fine; an exception is the failure *)
    match Netsim.Net.call tb.Testbed.net ~src:ws ~dst ~service payload with
    | Ok _ | Error _ -> ()
  done;
  (* the server is still alive and correct afterwards *)
  let c = Testbed.admin_client tb ~src:ws in
  match Moira.Mr_client.mr_query_list c ~name:"get_all_active_logins" [] with
  | Ok rows -> Alcotest.(check bool) "still serving" true (List.length rows > 0)
  | Error code -> Alcotest.fail (Comerr.Com_err.error_message code)

let fuzz_userreg () =
  let tb = Testbed.create () in
  let rng = Sim.Rng.create 99 in
  let ws = tb.Testbed.built.Population.workstation_machines.(0) in
  for _ = 1 to 200 do
    let payload = random_bytes rng (Sim.Rng.int rng 150) in
    match
      Netsim.Net.call tb.Testbed.net ~src:ws
        ~dst:tb.Testbed.built.Population.moira_machine ~service:"userreg"
        payload
    with
    | Ok _ | Error _ -> ()
  done;
  (* nobody got registered by garbage *)
  let stubs =
    Relation.Plan.count
      (Moira.Mdb.table tb.Testbed.mdb "users")
      (Relation.Pred.eq_int "status" 0)
  in
  Alcotest.(check int) "stubs untouched"
    tb.Testbed.built.Population.spec.Population.unregistered stubs

let suite =
  [
    Alcotest.test_case "moira port survives garbage" `Quick
      (fuzz_service ~service:"moira");
    Alcotest.test_case "update port survives garbage" `Quick
      (fuzz_service ~service:"moira_update");
    Alcotest.test_case "hesiod port survives garbage" `Quick
      (fuzz_service ~service:"hesiod");
    Alcotest.test_case "userreg port survives garbage" `Quick fuzz_userreg;
  ]
