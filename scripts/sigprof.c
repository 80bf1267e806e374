// LD_PRELOAD sampling profiler for scripts/profile.sh: SIGPROF every 4 ms of
// the process's CPU time (250 Hz), the interrupted instruction pointer
// recorded, and at exit every sample written to $SIGPROF_OUT as an offset
// into the executable, or as "-" and the shared object it fell in ("-libc.so.6",
// "-?" where none is known), one a line. The handler only stores the PC;
// the objects are looked up at exit, where `dladdr` may run.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long taken;
// The handler runs here, not on the interrupted stack: that may be a fiber's.
static char handler_stack[1 << 16];

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    if (taken < MAX_SAMPLES)
        pcs[taken++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

// The first object `dl_iterate_phdr` reports is the executable.
static int executable_range(struct dl_phdr_info *info, size_t size, void *out) {
    unsigned long *range = out, end = 0;
    (void)size;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *segment = &info->dlpi_phdr[i];
        if (segment->p_type == PT_LOAD && end < segment->p_vaddr + segment->p_memsz)
            end = segment->p_vaddr + segment->p_memsz;
    }
    range[0] = info->dlpi_addr, range[1] = info->dlpi_addr + end;
    return 1;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    unsigned long range[2] = {0, 0};
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    setitimer(ITIMER_PROF, &off, NULL);
    dl_iterate_phdr(executable_range, range);
    for (unsigned long i = 0; out && i < taken; i++) {
        Dl_info object;
        const char *name = "?";
        if (pcs[i] >= range[0] && pcs[i] < range[1]) {
            fprintf(out, "%#lx\n", pcs[i] - range[0]);
            continue;
        }
        // The object, not its nearest exported symbol: glibc's malloc
        // internals are local symbols, which `dli_sname` would misname.
        if (dladdr((void *)pcs[i], &object) && object.dli_fname && *object.dli_fname) {
            const char *slash = strrchr(object.dli_fname, '/');
            name = slash ? slash + 1 : object.dli_fname;
        }
        fprintf(out, "-%s\n", name);
    }
    if (out) fclose(out);
}

__attribute__((constructor)) static void start(void) {
    // The first tick comes after 40 ms: a timer outlives `exec` and its
    // handler does not, so a program that starts itself again early (the
    // benchmark does, to switch address randomisation off) must get this
    // far in the new image — where the timer is set afresh — before one.
    struct itimerval every_4_ms = {{0, 4000}, {0, 40000}};
    stack_t stack = {.ss_sp = handler_stack, .ss_size = sizeof handler_stack};
    struct sigaction act = {.sa_sigaction = on_prof,
                            .sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART};
    sigaltstack(&stack, NULL);
    sigaction(SIGPROF, &act, NULL);
    atexit(dump);
    setitimer(ITIMER_PROF, &every_4_ms, NULL);
}
