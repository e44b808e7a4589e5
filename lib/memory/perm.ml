type t = { r : bool; w : bool; x : bool }

let none = { r = false; w = false; x = false }
let r = { r = true; w = false; x = false }
let rw = { r = true; w = true; x = false }
let rx = { r = true; w = false; x = true }

let allows t = function `Read -> t.r | `Write -> t.w | `Exec -> t.x
let equal a b = a.r = b.r && a.w = b.w && a.x = b.x

let to_string t =
  Printf.sprintf "%c%c%c" (if t.r then 'r' else '-') (if t.w then 'w' else '-')
    (if t.x then 'x' else '-')
