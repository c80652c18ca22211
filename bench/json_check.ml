(* Strict JSON syntax checker (RFC 8259 grammar, stdlib only — the
   emitters live in lib/obs, so CI needs an independent parser to catch
   malformed emissions).  Usage: json_check [--jsonl|--bench|--synth] FILE.
   Exits 0 iff the file is exactly one well-formed JSON value plus
   optional trailing whitespace — or, with --jsonl (the probe-transcript
   format of Vc_obs.Trace), one well-formed value per non-empty line;
   otherwise prints the position of the first error and exits 1.

   --bench additionally validates a bench report against its declared
   shape (Bench_schema.document): every section and row carries exactly
   its declared members with their declared types, no section declared
   non-empty is empty, every gate member reads true (the timed comparisons' [ok],
   the reports' [all_agree] and [agrees]), and the schema's witnesses
   are present (a SAT and an UNSAT synth row, the SO: family rungs).

   --synth validates a `volcomp synth --json` verdict table: a non-empty
   [verdicts] array whose rows carry [certified] (null or a boolean) and
   [certify_error] (a string exactly when [certified] is false, the
   DRUP replay's reason for rejecting the proof; null otherwise). *)

exception Bad of int * string

(* Just enough structure for the --bench and --synth checks; numbers
   need no value, strings keep their raw (unescaped) contents. *)
type v =
  | Vnull
  | Vbool of bool
  | Vnum
  | Vstr of string
  | Varr of v list
  | Vobj of (string * v) list

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let fail st msg = raise (Bad (st.pos, msg))

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect_keyword st kw =
  String.iter (fun c -> expect st c) kw

let is_digit = function '0' .. '9' -> true | _ -> false
let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let parse_digits st =
  if not (match peek st with Some c -> is_digit c | None -> false) then
    fail st "expected a digit";
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done

(* JSON numbers: optional minus; "0" or a nonzero-led digit run; then an
   optional fraction part and an optional signed exponent part. *)
let parse_number st =
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | Some c when is_digit c -> parse_digits st
  | _ -> fail st "expected a digit");
  if peek st = Some '.' then begin
    advance st;
    parse_digits st
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      parse_digits st
  | _ -> ())

(* Returns the raw (still-escaped) contents — the --bench member names
   are plain ASCII, so no unescaping is needed to compare them. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let closed = ref false in
  while not !closed do
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        closed := true
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance st
        | Some 'u' ->
            advance st;
            for _ = 1 to 4 do
              match peek st with
              | Some c when is_hex c -> advance st
              | _ -> fail st "expected four hex digits after \\u"
            done
        | _ -> fail st "invalid escape sequence")
    | Some c when Char.code c < 0x20 -> fail st "unescaped control character in string"
    | Some _ -> advance st
  done;
  String.sub st.src start (st.pos - 1 - start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> Vstr (parse_string st)
  | Some 't' ->
      expect_keyword st "true";
      Vbool true
  | Some 'f' ->
      expect_keyword st "false";
      Vbool false
  | Some 'n' ->
      expect_keyword st "null";
      Vnull
  | Some ('-' | '0' .. '9') ->
      parse_number st;
      Vnum
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)
  | None -> fail st "expected a JSON value, found end of input"

and parse_object st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Vobj []
  end
  else begin
    let members = ref [] in
    let continue = ref true in
    while !continue do
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      members := (key, value) :: !members;
      skip_ws st;
      match peek st with
      | Some ',' -> advance st
      | Some '}' ->
          advance st;
          continue := false
      | _ -> fail st "expected ',' or '}' in object"
    done;
    Vobj (List.rev !members)
  end

and parse_array st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    Varr []
  end
  else begin
    let items = ref [] in
    let continue = ref true in
    while !continue do
      items := parse_value st :: !items;
      skip_ws st;
      match peek st with
      | Some ',' -> advance st
      | Some ']' ->
          advance st;
          continue := false
      | _ -> fail st "expected ',' or ']' in array"
    done;
    Varr (List.rev !items)
  end

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let check_value src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing garbage after JSON value";
  v

(* --- bench-report shape checks ------------------------------------------------ *)

let member key = function Vobj ms -> List.assoc_opt key ms | _ -> None

let bench_fail path fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: bad report shape: %s\n" path msg;
      exit 1)
    fmt

module Schema = Bench_schema

let rec describe : Schema.ty -> string = function
  | Bool -> "a boolean"
  | Num -> "a number"
  | Str -> "a string"
  | Any -> "a value"
  | Opt t -> describe t ^ " or null"
  | List _ | Rows _ -> "an array"
  | Tuple ts -> Printf.sprintf "an array of %d" (List.length ts)
  | Obj _ -> "an object"

(* Validates [v] against [ty]; [at] locates it for the error message. *)
let rec check_shape path at (ty : Schema.ty) v =
  let bad fmt = bench_fail path ("%s " ^^ fmt) at in
  match (ty, v) with
  | Any, _ | Bool, Vbool _ | Num, Vnum | Str, Vstr _ | Opt _, Vnull -> ()
  | Opt t, v -> check_shape path at t v
  | Rows _, Varr [] -> bad "is empty"
  | (List t | Rows t), Varr vs ->
      List.iteri (fun i v -> check_shape path (Printf.sprintf "%s[%d]" at i) t v) vs
  | Tuple ts, Varr vs when List.length ts = List.length vs -> List.iter2 (check_shape path at) ts vs
  | Obj o, Vobj ms ->
      List.iter
        (fun (key, t) ->
          match List.assoc_opt key ms with
          | Some v -> check_shape path (at ^ "." ^ key) t v
          | None -> bad "lacks %s" key)
        o.members;
      List.iter
        (fun (key, _) ->
          if not (List.mem_assoc key o.members) then bad "has undeclared member %s" key)
        ms;
      Option.iter
        (fun key ->
          if List.assoc_opt key ms <> Some (Vbool true) then
            bad "failed its gate (%s is not true)" key)
        o.gate
  | _ -> bad "is not %s" (describe ty)

(* Every value reached from [v] along member names, crossing arrays. *)
let rec values_at keys v =
  match (keys, v) with
  | [], v -> [ v ]
  | _, Varr vs -> List.concat_map (values_at keys) vs
  | key :: rest, Vobj ms -> (
      match List.assoc_opt key ms with Some v -> values_at rest v | None -> [])
  | _ -> []

let check_bench path doc =
  check_shape path "document" (Obj Schema.document) doc;
  List.iter
    (fun (w : Schema.witness) ->
      let hit = function
        | Vbool b -> w.value = `Bool b
        | Vstr s -> (
            match w.value with `Prefix p -> String.starts_with ~prefix:p s | `Bool _ -> false)
        | _ -> false
      in
      if not (List.exists hit (values_at w.path doc)) then bench_fail path "lacks %s" w.what)
    Schema.witnesses

let check_synth_verdicts path doc =
  let rows =
    match member "verdicts" doc with
    | Some (Varr (_ :: _ as rows)) -> rows
    | _ -> bench_fail path "verdicts missing, empty or not an array"
  in
  List.iteri
    (fun i row ->
      match (member "certified" row, member "certify_error" row) with
      | Some (Vbool false), Some (Vstr _) -> ()
      | Some (Vbool false), _ -> bench_fail path "verdict %d: certify_error is not a string" i
      | Some (Vnull | Vbool true), Some Vnull -> ()
      | Some (Vnull | Vbool true), _ -> bench_fail path "verdict %d: certify_error is not null" i
      | _ -> bench_fail path "verdict %d: certified is not null or a boolean" i)
    rows;
  List.length rows

let () =
  let mode, path =
    match Sys.argv with
    | [| _; "--jsonl"; path |] -> (`Jsonl, path)
    | [| _; "--bench"; path |] -> (`Bench, path)
    | [| _; "--synth"; path |] -> (`Synth, path)
    | [| _; path |] -> (`Plain, path)
    | _ ->
        prerr_endline "usage: json_check [--jsonl|--bench|--synth] FILE";
        exit 2
  in
  let src = try read_file path with Sys_error msg -> prerr_endline msg; exit 2 in
  if mode = `Jsonl then begin
    let lines = String.split_on_char '\n' src in
    let n = ref 0 in
    List.iteri
      (fun i line ->
        if String.trim line <> "" then begin
          incr n;
          match check_value line with
          | (_ : v) -> ()
          | exception Bad (pos, msg) ->
              Printf.eprintf "%s: line %d: malformed JSON at byte %d: %s\n" path (i + 1) pos msg;
              exit 1
        end)
      lines;
    if !n = 0 then begin
      Printf.eprintf "%s: no JSON values (empty JSONL file)\n" path;
      exit 1
    end;
    Printf.printf "%s: well-formed JSONL (%d values)\n" path !n
  end
  else
    match check_value src with
    | doc ->
        if mode = `Bench then begin
          check_bench path doc;
          Printf.printf "%s: well-formed bench report (%d bytes, every section as declared)\n" path
            (String.length src)
        end
        else if mode = `Synth then
          Printf.printf "%s: well-formed synth verdict table (%d verdict(s) ok)\n" path
            (check_synth_verdicts path doc)
        else Printf.printf "%s: well-formed JSON (%d bytes)\n" path (String.length src)
    | exception Bad (pos, msg) ->
        Printf.eprintf "%s: malformed JSON at byte %d: %s\n" path pos msg;
        exit 1
