type status = Ok | Timed_out | Errored of string
type sample = { latency : float; cost : float; status : status }

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Metrics.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tail = { value : float; rank : float; samples : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then None
  else
    Some
      { value = a.(n - 11);
        rank = 100.0 *. float_of_int (n - 10) /. float_of_int n;
        samples = n }

let is_failed s = s.status <> Ok
let failed samples = List.length (List.filter is_failed samples)

let failed_share = function
  | [] -> 0.0
  | samples ->
    float_of_int (failed samples) /. float_of_int (List.length samples)

let objects_per_query ~budget samples =
  let charged =
    List.filter_map
      (fun s ->
        match s.status with
        | Ok -> Some s.cost
        | Timed_out -> Some budget
        | Errored _ -> None)
      samples
  in
  match charged with
  | [] -> nan
  | cs -> List.fold_left ( +. ) 0.0 cs /. float_of_int (List.length cs)
