(* Output checks that do not trust the program's own answer: planted
   faults are checked against what {!Orm_generator.Faults.inject} says it
   planted, clones against the benchmark's own renaming, sessions against
   a from-scratch engine run, and complete verdicts against a model the
   bounded finder produced and {!Orm_semantics.Eval} verified. *)

module J = Orm_json
module P = Orm_server.Protocol
module Faults = Orm_generator.Faults

let ( let* ) = Result.bind

let member k v =
  match P.member k v with Some x -> Ok x | None -> Error ("missing field " ^ k)

let as_list = function J.List l -> Ok l | _ -> Error "expected an array"

let role_of_json v =
  match (P.member "fact" v, P.member "side" v) with
  | Some (J.String f), Some (J.Int s) -> Ok (f, s)
  | _ -> Error "malformed role"

let role_key (r : Orm.Ids.role) = (r.fact, Orm.Ids.side_index r.side)

let all_ok f l =
  List.fold_left
    (fun acc x -> match acc with Error _ -> acc | Ok acc -> Result.map (fun y -> y :: acc) (f x))
    (Ok []) l
  |> Result.map List.rev

(* Pattern numbers of a report value's pattern-origin diagnostics. *)
let patterns_fired report =
  let* diags = Result.bind (member "diagnostics" report) as_list in
  Ok
    (List.filter_map
       (fun d ->
         match P.member "origin" d with
         | Some o -> (
             match (P.member "kind" o, P.member "number" o) with
             | Some (J.String "pattern"), Some (J.Int n) -> Some n
             | _ -> None)
         | None -> None)
       diags)

(* A report value against the schema's construction: clean by
   construction answers no diagnostic; a planted fault is named by its
   pattern on every type, role and joint group the injection expects. *)
let check_report ~(injection : Faults.injection option) report =
  let* fired = patterns_fired report in
  match injection with
  | None ->
      if fired = [] then Ok ()
      else
        Error
          (Printf.sprintf "clean-by-construction schema flagged by pattern(s) %s"
             (String.concat "," (List.map string_of_int fired)))
  | Some inj ->
      let p = inj.Faults.pattern in
      if not (List.mem p fired) then
        Error (Printf.sprintf "planted pattern %d not reported" p)
      else
        let* types = Result.bind (member "unsat_types" report) as_list in
        let* roles = Result.bind (Result.bind (member "unsat_roles" report) as_list) (all_ok role_of_json) in
        let* joint = Result.bind (member "joint" report) as_list in
        let* joint = all_ok (fun g -> Result.bind (as_list g) (all_ok role_of_json)) joint in
        let missing_type =
          List.find_opt (fun t -> not (List.mem (J.String t) types)) inj.expect_types
        in
        let missing_role =
          List.find_opt (fun r -> not (List.mem (role_key r) roles)) inj.expect_roles
        in
        let missing_group =
          List.find_opt
            (fun g ->
              not
                (List.exists
                   (fun have -> List.for_all (fun r -> List.mem (role_key r) have) g)
                   joint))
            inj.expect_joint
        in
        (match (missing_type, missing_role, missing_group) with
        | Some t, _, _ -> Error (Printf.sprintf "pattern %d: type %s not unsat" p t)
        | _, Some r, _ -> Error (Printf.sprintf "pattern %d: role %s not unsat" p (Orm.Ids.role_to_string r))
        | _, _, Some _ -> Error (Printf.sprintf "pattern %d: joint group missing" p)
        | None, None, None -> Ok ())

(* A response line: status ok, the expected id, and its body. *)
let parse_ok ~id line =
  match P.parse_response line with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok r ->
      if r.P.status <> "ok" then Error ("status " ^ r.P.status)
      else if r.P.resp_id <> Some id then Error "id mismatch"
      else Ok r

(* The body without its envelope's per-request fields: equal printed
   forms mean equal answers. *)
let answer_value (r : P.parsed_response) =
  match r.P.body with
  | J.Obj fields ->
      J.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields)
  | v -> v

let answer r = J.to_string (answer_value r)

(* A definitive verdict: a pattern diagnostic, a tableau unsat element, or
   a SAT model / no_model from either grounding. *)
let conclusive body =
  let diags = match P.member "diagnostics" body with Some (J.Int n) -> n | _ -> 0 in
  let dlr_unsat =
    match P.member "dlr" body with
    | Some d ->
        List.exists
          (fun k -> match P.member k d with Some (J.List (_ :: _)) -> true | _ -> false)
          [ "unsat_types"; "unsat_roles" ]
    | None -> false
  in
  let sat_def k =
    match P.member k body with
    | Some s -> (
        match P.member "outcome" s with
        | Some (J.String ("model" | "no_model")) -> true
        | _ -> false)
    | None -> false
  in
  diags > 0 || dlr_unsat || sat_def "sat" || sat_def "sat_lazy"

(* An answer with the order of every list and of the words of every
   string forgotten.  Isomorphic clones are answered through a bijection
   that may differ from the benchmark's renaming by an automorphism of the
   schema (pattern 1's two fresh supertypes are interchangeable, say), so
   the members of a list can come back in another order. *)
let rec unordered (v : J.t) : J.t =
  match v with
  | String s ->
      let words = ref [] and b = Buffer.create 16 in
      let cut () =
        if Buffer.length b > 0 then begin
          words := Buffer.contents b :: !words;
          Buffer.clear b
        end
      in
      String.iter (fun c -> if Inputs.is_ident c then Buffer.add_char b c else cut ()) s;
      cut ();
      String (String.concat " " (List.sort compare !words))
  | List l ->
      List (List.sort compare (List.map (fun x -> J.to_string (unordered x)) l)
            |> List.map (fun s -> J.String s))
  | Obj fields -> Obj (List.map (fun (k, x) -> (k, unordered x)) fields)
  | Null | Bool _ | Int _ | Float _ -> v
