(* The section 5.6.3 library routines: string utilities, flag
   conversion, the hash/queue abstractions, and the menu package. *)

open Moira

let test_trim () =
  Alcotest.(check string) "both ends" "x y" (Mr_util.trim_whitespace "  x y\t\n");
  Alcotest.(check string) "nothing" "abc" (Mr_util.trim_whitespace "abc");
  Alcotest.(check string) "all space" "" (Mr_util.trim_whitespace " \t ");
  Alcotest.(check string) "empty" "" (Mr_util.trim_whitespace "")

let test_split_words () =
  Alcotest.(check (list string)) "mixed separators" [ "a"; "b"; "c" ]
    (Mr_util.split_words " a\tb  c ");
  Alcotest.(check (list string)) "empty" [] (Mr_util.split_words "   ")

let test_canonicalize () =
  Alcotest.(check string) "upper + trim" "HOST.MIT.EDU"
    (Mr_util.canonicalize_hostname " host.mit.edu ")

let test_status_strings () =
  Alcotest.(check string) "active" "active" (Mr_util.user_status_to_string 1);
  Alcotest.(check string) "deletion" "marked for deletion"
    (Mr_util.user_status_to_string 3);
  Alcotest.(check (option int)) "inverse" (Some 1)
    (Mr_util.user_status_of_string "active");
  Alcotest.(check (option int)) "unknown" None
    (Mr_util.user_status_of_string "zombie");
  Alcotest.(check bool) "unknown code mentioned" true
    (String.length (Mr_util.user_status_to_string 99) > 0)

let test_nfsphys_status () =
  Alcotest.(check string) "bits" "student+staff"
    (Mr_util.nfsphys_status_to_string
       (Mrconst.fs_student lor Mrconst.fs_staff));
  Alcotest.(check string) "none" "none" (Mr_util.nfsphys_status_to_string 0)

(* drive a menu with scripted input *)
let drive menu script =
  let lines = ref script in
  let out = Buffer.create 256 in
  Menu.run menu
    ~input:(fun () ->
      match !lines with
      | [] -> None
      | l :: rest ->
          lines := rest;
          Some l)
    ~output:(Buffer.add_string out);
  Buffer.contents out

let sample_menu hits =
  let inner =
    Menu.create ~title:"inner"
    |> Menu.command ~key:"ping" ~help:"ping" (fun args ->
           hits := ("ping", args) :: !hits;
           [ "pong" ])
  in
  Menu.create ~title:"outer"
  |> Menu.command ~key:"hello" ~help:"say hello" (fun _ -> [ "hi there" ])
  |> Menu.submenu ~key:"inner" ~help:"go deeper" inner

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_menu_dispatch () =
  let hits = ref [] in
  let out = drive (sample_menu hits) [ "hello"; "quit" ] in
  Alcotest.(check bool) "output" true (contains "hi there" out)

let test_menu_submenu_and_args () =
  let hits = ref [] in
  let out =
    drive (sample_menu hits) [ "inner"; "ping a b"; "up"; "hello"; "quit" ]
  in
  Alcotest.(check bool) "pong printed" true (contains "pong" out);
  Alcotest.(check bool) "back at outer" true (contains "hi there" out);
  Alcotest.(check (list (pair string (list string))))
    "args delivered"
    [ ("ping", [ "a"; "b" ]) ]
    !hits

let test_menu_help_and_unknown () =
  let hits = ref [] in
  let out = drive (sample_menu hits) [ "?"; "bogus"; "quit" ] in
  Alcotest.(check bool) "help lists keys" true (contains "hello" out);
  Alcotest.(check bool) "unknown reported" true (contains "unknown" out)

let test_menu_eof_quits () =
  let hits = ref [] in
  let out = drive (sample_menu hits) [ "inner" ] in
  (* EOF inside the submenu must unwind everything without raising *)
  Alcotest.(check bool) "prompted" true (contains "inner> " out)

let test_menu_action_failure_caught () =
  let menu =
    Menu.create ~title:"m"
    |> Menu.command ~key:"boom" ~help:"fails" (fun _ -> failwith "kaput")
  in
  let out = drive menu [ "boom"; "quit" ] in
  Alcotest.(check bool) "error reported, loop continues" true
    (contains "kaput" out)

let suite =
  [
    Alcotest.test_case "trim" `Quick test_trim;
    Alcotest.test_case "split words" `Quick test_split_words;
    Alcotest.test_case "canonicalize hostname" `Quick test_canonicalize;
    Alcotest.test_case "status strings" `Quick test_status_strings;
    Alcotest.test_case "nfsphys status" `Quick test_nfsphys_status;
    Alcotest.test_case "menu dispatch" `Quick test_menu_dispatch;
    Alcotest.test_case "menu submenu+args" `Quick
      test_menu_submenu_and_args;
    Alcotest.test_case "menu help/unknown" `Quick
      test_menu_help_and_unknown;
    Alcotest.test_case "menu EOF" `Quick test_menu_eof_quits;
    Alcotest.test_case "menu action failure" `Quick
      test_menu_action_failure_caught;
  ]
