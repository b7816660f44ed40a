let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let trim_whitespace s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let canonicalize_hostname = Lookup.canon_host

let statuses =
  [
    (Mrconst.user_not_registered, "not registered");
    (Mrconst.user_active, "active");
    (Mrconst.user_half_registered, "half registered");
    (Mrconst.user_deleted, "marked for deletion");
    (Mrconst.user_not_registerable, "not registerable");
  ]

let user_status_to_string status =
  Option.value (List.assoc_opt status statuses)
    ~default:(Printf.sprintf "unknown status %d" status)

let user_status_of_string s =
  List.find_map
    (fun (code, name) -> if name = s then Some code else None)
    statuses

let nfsphys_status_to_string status =
  let bits =
    List.filter_map
      (fun (bit, name) -> if status land bit <> 0 then Some name else None)
      [
        (Mrconst.fs_student, "student");
        (Mrconst.fs_faculty, "faculty");
        (Mrconst.fs_staff, "staff");
        (Mrconst.fs_misc, "misc");
      ]
  in
  match bits with [] -> "none" | _ -> String.concat "+" bits
