/* CPU affinity for the benchmark's pool domains (Linux). */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0, i, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    n = CPU_COUNT(&set);
  res = caml_alloc_tuple(n > 0 ? n : 1);
  if (n == 0) {
    Store_field(res, 0, Val_int(-1));
    CAMLreturn(res);
  }
  for (i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, k++, Val_int(i));
  CAMLreturn(res);
}

/* Pin the calling thread to one CPU; false if the kernel refuses. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  if (Int_val(cpu) < 0) return Val_false;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
}
