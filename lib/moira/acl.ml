open Relation

type ace = {
  ace_type : string;
  ace_id : int;
}

let resolve_ace mdb ~ace_type ~ace_name =
  match String.uppercase_ascii ace_type with
  | "NONE" -> Ok { ace_type = "NONE"; ace_id = 0 }
  | "USER" -> (
      match Lookup.user_id mdb ace_name with
      | Some id -> Ok { ace_type = "USER"; ace_id = id }
      | None -> Error Mr_err.ace)
  | "LIST" -> (
      match Lookup.list_id mdb ace_name with
      | Some id -> Ok { ace_type = "LIST"; ace_id = id }
      | None -> Error Mr_err.ace)
  | _ -> Error Mr_err.ace

let ace_name mdb ace =
  match ace.ace_type with
  | "NONE" -> "NONE"
  | "USER" ->
      Option.value
        (Lookup.user_login mdb ace.ace_id)
        ~default:(Printf.sprintf "#%d" ace.ace_id)
  | "LIST" ->
      Option.value
        (Lookup.list_name mdb ace.ace_id)
        ~default:(Printf.sprintf "#%d" ace.ace_id)
  | _ -> Printf.sprintf "#%d" ace.ace_id

let is_member_of_list mdb ~list_id ~mtype ~mid =
  Plan.exists (Mdb.table mdb "members")
    (Pred.conj
       [
         Pred.eq_int "list_id" list_id;
         Pred.eq_str "member_type" mtype;
         Pred.eq_int "member_id" mid;
       ])

let direct_members mdb list_id =
  Plan.select (Mdb.table mdb "members") (Pred.eq_int "list_id" list_id)
  |> List.map (fun (_, row) -> (Value.str row.(1), Value.int row.(2)))

(* Recursive reachability with a visited set guarding against the
   self-referential ACLs the paper explicitly allows. *)
let reachable mdb ~root ~stop_at =
  let visited = Hashtbl.create 16 in
  let rec go list_id =
    if Hashtbl.mem visited list_id then false
    else begin
      Hashtbl.replace visited list_id ();
      List.exists
        (fun (mtype, mid) ->
          match mtype with
          | "LIST" -> stop_at ("LIST", mid) || go mid
          | _ -> stop_at (mtype, mid))
        (direct_members mdb list_id)
    end
  in
  go root

let user_in_list mdb ~list_id ~users_id =
  reachable mdb ~root:list_id ~stop_at:(fun (t, id) ->
      t = "USER" && id = users_id)

let list_in_list mdb ~outer ~inner =
  reachable mdb ~root:outer ~stop_at:(fun (t, id) ->
      t = "LIST" && id = inner)

let user_on_ace mdb ace ~users_id =
  match ace.ace_type with
  | "NONE" -> false
  | "USER" -> ace.ace_id = users_id
  | "LIST" -> user_in_list mdb ~list_id:ace.ace_id ~users_id
  | _ -> false

let login_on_ace mdb ace ~login =
  match Lookup.user_id mdb login with
  | None -> false
  | Some users_id -> user_on_ace mdb ace ~users_id

let set_capacl mdb ~query ~tag ~list_id =
  let tbl = Mdb.table mdb "capacls" in
  let n =
    Plan.set_fields tbl
      (Pred.eq_str "capability" query)
      [ ("tag", Value.Str tag); ("list_id", Value.Int list_id) ]
  in
  if n = 0 then
    ignore
      (Table.insert tbl
         [| Value.Str query; Value.Str tag; Value.Int list_id |])

let query_allowed mdb ~query ~login =
  match
    Plan.select_one (Mdb.table mdb "capacls")
      (Pred.eq_str "capability" query)
  with
  | None -> false
  | Some (_, row) -> (
      let list_id = Value.int row.(2) in
      match Lookup.user_id mdb login with
      | None -> false
      | Some users_id -> user_in_list mdb ~list_id ~users_id)

(* Naive recursive descent, one select per list visited.  Kept as the
   reference implementation: the property tests check the closure-based
   fast path against it, and the benchmarks measure the speedup. *)
let expand_users_naive mdb ~list_id =
  let visited = Hashtbl.create 16 in
  let users = Hashtbl.create 16 in
  let rec go list_id =
    if not (Hashtbl.mem visited list_id) then begin
      Hashtbl.replace visited list_id ();
      List.iter
        (fun (mtype, mid) ->
          match mtype with
          | "USER" -> Hashtbl.replace users mid ()
          | "LIST" -> go mid
          | _ -> ())
        (direct_members mdb list_id)
    end
  in
  go list_id;
  Hashtbl.fold
    (fun uid () acc ->
      match Lookup.user_login mdb uid with
      | Some login -> login :: acc
      | None -> acc)
    users []
  |> List.sort_uniq String.compare

let expand_users mdb ~list_id =
  let closure = Closure.get mdb in
  List.filter_map
    (fun uid -> Lookup.user_login mdb uid)
    (Closure.user_ids_of_list closure ~list_id)
  |> List.sort_uniq String.compare

let direct_containers mdb ~mtype ~mid =
  Plan.select (Mdb.table mdb "members")
    (Pred.conj
       [ Pred.eq_str "member_type" mtype; Pred.eq_int "member_id" mid ])
  |> List.map (fun (_, row) -> Value.int row.(0))

let containing_lists_naive mdb ~mtype ~mid =
  let seen = Hashtbl.create 16 in
  let rec expand frontier =
    match frontier with
    | [] -> ()
    | list_id :: rest ->
        if Hashtbl.mem seen list_id then expand rest
        else begin
          Hashtbl.replace seen list_id ();
          let parents = direct_containers mdb ~mtype:"LIST" ~mid:list_id in
          expand (parents @ rest)
        end
  in
  expand (direct_containers mdb ~mtype ~mid);
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort Int.compare

let containing_lists mdb ~mtype ~mid =
  Closure.containing_lists (Closure.get mdb) ~mtype ~mid
