type action = string list -> string list

type entry =
  | Command of string * action
  | Submenu of string * t

and t = {
  mtitle : string;
  mutable items : (string * entry) list; (* reverse addition order *)
}

let create ~title = { mtitle = title; items = [] }

let add t key entry =
  t.items <- (key, entry) :: List.remove_assoc key t.items;
  t

let command ~key ~help action t = add t key (Command (help, action))
let submenu ~key ~help child t = add t key (Submenu (help, child))

let entries t =
  List.rev_map
    (fun (key, entry) ->
      match entry with
      | Command (help, _) -> (key, help)
      | Submenu (help, _) -> (key, help ^ " (menu)"))
    t.items

exception Quit_all

let rec run_level t ~input ~output =
  let prompt () = output (t.mtitle ^ "> ") in
  let help () =
    List.iter
      (fun (key, help) -> output (Printf.sprintf "  %-12s %s\n" key help))
      (entries t);
    output "  ?            this list\n  up           leave this menu\n  quit         leave every menu\n"
  in
  let rec loop () =
    prompt ();
    match input () with
    | None -> raise Quit_all
    | Some line -> (
        match Mr_util.split_words line with
        | [] -> loop ()
        | [ "?" ] | [ "help" ] ->
            help ();
            loop ()
        | [ "up" ] | [ "q" ] -> ()
        | [ "quit" ] -> raise Quit_all
        | key :: args -> (
            match List.assoc_opt key t.items with
            | Some (Command (_, action)) ->
                (try
                   List.iter (fun l -> output (l ^ "\n")) (action args)
                 with Failure msg -> output ("error: " ^ msg ^ "\n"));
                loop ()
            | Some (Submenu (_, child)) ->
                run_level child ~input ~output;
                loop ()
            | None ->
                output
                  (Printf.sprintf "unknown command %S; ? for help\n" key);
                loop ()))
  in
  loop ()

let run t ~input ~output =
  try run_level t ~input ~output with Quit_all -> ()

let run_channels t ic oc =
  run t
    ~input:(fun () ->
      try Some (input_line ic) with End_of_file -> None)
    ~output:(fun s ->
      output_string oc s;
      flush oc)
