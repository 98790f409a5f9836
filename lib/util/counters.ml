type event =
  | Encrypt
  | Decrypt
  | Hom_add
  | Hom_mul
  | Hom_mul_plain
  | Hom_modswitch
  | Hom_relin
  | Round
  | Bytes_sent of int

type op =
  | Op_encrypt
  | Op_decrypt
  | Op_ct_add
  | Op_ct_mul
  | Op_mul_plain
  | Op_modswitch
  | Op_level_drop
  | Op_key_switch
  | Op_ntt_fwd
  | Op_ntt_inv
  | Op_slot_pack
  | Op_slot_unpack
  | Op_expand

let all_ops =
  [| Op_encrypt; Op_decrypt; Op_ct_add; Op_ct_mul; Op_mul_plain; Op_modswitch;
     Op_level_drop; Op_key_switch; Op_ntt_fwd; Op_ntt_inv; Op_slot_pack;
     Op_slot_unpack; Op_expand |]

let num_ops = Array.length all_ops

let op_index = function
  | Op_encrypt -> 0
  | Op_decrypt -> 1
  | Op_ct_add -> 2
  | Op_ct_mul -> 3
  | Op_mul_plain -> 4
  | Op_modswitch -> 5
  | Op_level_drop -> 6
  | Op_key_switch -> 7
  | Op_ntt_fwd -> 8
  | Op_ntt_inv -> 9
  | Op_slot_pack -> 10
  | Op_slot_unpack -> 11
  | Op_expand -> 12

let op_name = function
  | Op_encrypt -> "encrypt"
  | Op_decrypt -> "decrypt"
  | Op_ct_add -> "ct_add"
  | Op_ct_mul -> "ct_mul"
  | Op_mul_plain -> "mul_plain"
  | Op_modswitch -> "modswitch"
  | Op_level_drop -> "level_drop"
  | Op_key_switch -> "key_switch"
  | Op_ntt_fwd -> "ntt_fwd"
  | Op_ntt_inv -> "ntt_inv"
  | Op_slot_pack -> "slot_pack"
  | Op_slot_unpack -> "slot_unpack"
  | Op_expand -> "expand"

(* Slot pack/unpack are plaintext-side and level-less; they record at
   level 0.  Ciphertext ops record at 1..max_level. *)
let max_level = 64

type t = {
  mutable encrypt : int;
  mutable decrypt : int;
  mutable hom_add : int;
  mutable hom_mul : int;
  mutable hom_mul_plain : int;
  mutable hom_modswitch : int;
  mutable hom_relin : int;
  mutable round : int;
  mutable bytes : int;
  ledger : int array array;
      (* [ledger.(op_index op).(level)] — op-kind × BGV-level counts *)
}

let create () =
  { encrypt = 0; decrypt = 0; hom_add = 0; hom_mul = 0; hom_mul_plain = 0;
    hom_modswitch = 0; hom_relin = 0; round = 0; bytes = 0;
    ledger = Array.make_matrix num_ops (max_level + 1) 0 }

let reset t =
  t.encrypt <- 0;
  t.decrypt <- 0;
  t.hom_add <- 0;
  t.hom_mul <- 0;
  t.hom_mul_plain <- 0;
  t.hom_modswitch <- 0;
  t.hom_relin <- 0;
  t.round <- 0;
  t.bytes <- 0;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.ledger

let record t = function
  | Encrypt -> t.encrypt <- t.encrypt + 1
  | Decrypt -> t.decrypt <- t.decrypt + 1
  | Hom_add -> t.hom_add <- t.hom_add + 1
  | Hom_mul -> t.hom_mul <- t.hom_mul + 1
  | Hom_mul_plain -> t.hom_mul_plain <- t.hom_mul_plain + 1
  | Hom_modswitch -> t.hom_modswitch <- t.hom_modswitch + 1
  | Hom_relin -> t.hom_relin <- t.hom_relin + 1
  | Round -> t.round <- t.round + 1
  | Bytes_sent n -> t.bytes <- t.bytes + n

let check_level level =
  if level < 0 || level > max_level then
    invalid_arg (Printf.sprintf "Counters.record_op: level %d out of range" level)

let record_op_n t op ~level k =
  if k < 0 then invalid_arg "Counters.record_op_n: negative count";
  check_level level;
  let row = t.ledger.(op_index op) in
  row.(level) <- row.(level) + k

let record_op t op ~level = record_op_n t op ~level 1
let op_count t op ~level = check_level level; t.ledger.(op_index op).(level)
let op_total t op = Array.fold_left ( + ) 0 t.ledger.(op_index op)
let ops_total t = Array.fold_left (fun s row -> Array.fold_left ( + ) s row) 0 t.ledger

let ledger_entries t =
  let acc = ref [] in
  for i = num_ops - 1 downto 0 do
    let row = t.ledger.(i) in
    for level = max_level downto 0 do
      if row.(level) <> 0 then acc := (all_ops.(i), level, row.(level)) :: !acc
    done
  done;
  !acc

let encryptions t = t.encrypt
let decryptions t = t.decrypt
let hom_adds t = t.hom_add
let hom_muls t = t.hom_mul
let hom_mul_plains t = t.hom_mul_plain
let hom_modswitches t = t.hom_modswitch
let hom_relins t = t.hom_relin

let hom_total t =
  t.hom_add + t.hom_mul + t.hom_mul_plain + t.hom_modswitch + t.hom_relin

let rounds t = t.round
let bytes_sent t = t.bytes

let record_n t e k =
  if k < 0 then invalid_arg "Counters.record_n: negative count";
  match e with
  | Encrypt -> t.encrypt <- t.encrypt + k
  | Decrypt -> t.decrypt <- t.decrypt + k
  | Hom_add -> t.hom_add <- t.hom_add + k
  | Hom_mul -> t.hom_mul <- t.hom_mul + k
  | Hom_mul_plain -> t.hom_mul_plain <- t.hom_mul_plain + k
  | Hom_modswitch -> t.hom_modswitch <- t.hom_modswitch + k
  | Hom_relin -> t.hom_relin <- t.hom_relin + k
  | Round -> t.round <- t.round + k
  | Bytes_sent n -> t.bytes <- t.bytes + (n * k)

let ledger_iter2 f a b =
  for i = 0 to num_ops - 1 do
    let ra = a.ledger.(i) and rb = b.ledger.(i) in
    for level = 0 to max_level do
      f ra rb level
    done
  done

let absorb ~into b =
  into.encrypt <- into.encrypt + b.encrypt;
  into.decrypt <- into.decrypt + b.decrypt;
  into.hom_add <- into.hom_add + b.hom_add;
  into.hom_mul <- into.hom_mul + b.hom_mul;
  into.hom_mul_plain <- into.hom_mul_plain + b.hom_mul_plain;
  into.hom_modswitch <- into.hom_modswitch + b.hom_modswitch;
  into.hom_relin <- into.hom_relin + b.hom_relin;
  into.round <- into.round + b.round;
  into.bytes <- into.bytes + b.bytes;
  ledger_iter2 (fun ri rb level -> ri.(level) <- ri.(level) + rb.(level)) into b

let copy t =
  let c =
    { encrypt = t.encrypt; decrypt = t.decrypt; hom_add = t.hom_add;
      hom_mul = t.hom_mul; hom_mul_plain = t.hom_mul_plain;
      hom_modswitch = t.hom_modswitch; hom_relin = t.hom_relin; round = t.round;
      bytes = t.bytes; ledger = Array.make_matrix num_ops (max_level + 1) 0 }
  in
  ledger_iter2 (fun rc rt level -> rc.(level) <- rt.(level)) c t;
  c

let diff a b =
  let d =
    { encrypt = a.encrypt - b.encrypt;
      decrypt = a.decrypt - b.decrypt;
      hom_add = a.hom_add - b.hom_add;
      hom_mul = a.hom_mul - b.hom_mul;
      hom_mul_plain = a.hom_mul_plain - b.hom_mul_plain;
      hom_modswitch = a.hom_modswitch - b.hom_modswitch;
      hom_relin = a.hom_relin - b.hom_relin;
      round = a.round - b.round;
      bytes = a.bytes - b.bytes;
      ledger = Array.make_matrix num_ops (max_level + 1) 0 }
  in
  for i = 0 to num_ops - 1 do
    let rd = d.ledger.(i) and ra = a.ledger.(i) and rb = b.ledger.(i) in
    for level = 0 to max_level do
      rd.(level) <- ra.(level) - rb.(level)
    done
  done;
  d

let is_zero t =
  t.encrypt = 0 && t.decrypt = 0 && t.hom_add = 0 && t.hom_mul = 0
  && t.hom_mul_plain = 0 && t.hom_modswitch = 0 && t.hom_relin = 0
  && t.round = 0 && t.bytes = 0
  && Array.for_all (fun row -> Array.for_all (fun c -> c = 0) row) t.ledger

let to_list t =
  [ ("encryptions", t.encrypt);
    ("decryptions", t.decrypt);
    ("hom_adds", t.hom_add);
    ("hom_muls", t.hom_mul);
    ("hom_mul_plains", t.hom_mul_plain);
    ("hom_modswitches", t.hom_modswitch);
    ("hom_relins", t.hom_relin);
    ("rounds", t.round);
    ("bytes_sent", t.bytes) ]

let merge a b =
  let c = copy a in
  absorb ~into:c b;
  c

let equal_ledger a b =
  let ok = ref true in
  ledger_iter2 (fun ra rb level -> if ra.(level) <> rb.(level) then ok := false) a b;
  !ok

let pp ppf t =
  Format.fprintf ppf
    "@[<v>enc=%d dec=%d hom(add=%d mul=%d mulp=%d modsw=%d relin=%d total=%d)@ \
     rounds=%d bytes=%d"
    t.encrypt t.decrypt t.hom_add t.hom_mul t.hom_mul_plain t.hom_modswitch
    t.hom_relin (hom_total t) t.round t.bytes;
  (match ledger_entries t with
   | [] -> ()
   | entries ->
     Format.fprintf ppf "@ ledger(";
     List.iteri
       (fun i (op, level, count) ->
         if i > 0 then Format.fprintf ppf " ";
         Format.fprintf ppf "%s@@L%d=%d" (op_name op) level count)
       entries;
     Format.fprintf ppf ")");
  Format.fprintf ppf "@]"
