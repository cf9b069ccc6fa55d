(** Every run dispatches sequentially on one domain. [jobs] exists only
    because the benchmark harness records it; it always returns 1. *)
let jobs () = 1
