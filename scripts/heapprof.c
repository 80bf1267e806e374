// LD_PRELOAD heap profiler for `scripts/profile.sh --heap`: every malloc,
// calloc, realloc, posix_memalign, aligned_alloc, memalign and free the
// executable makes is counted, and the bytes each allocation site holds
// live are kept — a site is the call stack's first frames, walked by the
// unwinder. Whenever the live total passes its peak, the sites' live bytes
// are copied aside. At exit that copy is written to $HEAPPROF_OUT: a line
// "peak <bytes> <blocks> <untracked>", then one line per site live at the
// peak, "<bytes> <blocks> <frame> <frame> ...", each frame an offset into
// the executable or "-" for one outside it. The allocations themselves go
// to glibc's own functions, unchanged.
#define _GNU_SOURCE
#include <link.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unwind.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define DEPTH 20
#define MAX_SITES (1 << 16)
#define SITE_SLOTS (1 << 17)
#define LIVE_SLOTS (1 << 20)

struct site {
    unsigned long pc[DEPTH];
    int depth;
};
static struct site sites[MAX_SITES];
static unsigned sites_used;
// Site index + 1 by stack hash; 0 is a free slot.
static unsigned site_slot[SITE_SLOTS];
static unsigned long long site_bytes[MAX_SITES], site_blocks[MAX_SITES];
static unsigned long long peak_bytes[MAX_SITES], peak_blocks[MAX_SITES];
static unsigned long long live, live_blocks, peak, peak_live_blocks, untracked;

// Live blocks by address: linear probing, deleted by backward shift.
struct block {
    uintptr_t ptr;
    size_t size;
    unsigned site;
};
static struct block blocks[LIVE_SLOTS];
static unsigned long long blocks_used;

static volatile int lock;
// Set while this thread is inside the profiler: an allocation the unwinder
// makes is handed on uncounted.
static __thread int inside;

static uint64_t mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

static _Unwind_Reason_Code frame(struct _Unwind_Context *ctx, void *arg) {
    struct site *s = arg;
    s->pc[s->depth++] = _Unwind_GetIP(ctx);
    return s->depth == DEPTH ? _URC_END_OF_STACK : _URC_NO_REASON;
}

// The index of the site `s` is, added if new; MAX_SITES when full.
static unsigned site_of(const struct site *s) {
    uint64_t h = s->depth;
    for (int i = 0; i < s->depth; i++) h = mix(h ^ s->pc[i]);
    for (unsigned at = h & (SITE_SLOTS - 1);; at = (at + 1) & (SITE_SLOTS - 1)) {
        unsigned i = site_slot[at];
        if (i == 0) {
            if (sites_used == MAX_SITES) return MAX_SITES;
            sites[sites_used] = *s;
            site_slot[at] = ++sites_used;
            return sites_used - 1;
        }
        const struct site *t = &sites[i - 1];
        if (t->depth == s->depth && !memcmp(t->pc, s->pc, s->depth * sizeof s->pc[0])) return i - 1;
    }
}

static size_t home(uintptr_t ptr) { return mix(ptr) & (LIVE_SLOTS - 1); }

static void lock_take(void) {
    while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {
    }
}

static void lock_give(void) { __atomic_store_n(&lock, 0, __ATOMIC_RELEASE); }

static void note_alloc(void *p, size_t size) {
    if (!p || inside) return;
    inside = 1;
    // The first frames are the profiler's own: outside the executable,
    // they are written as such.
    struct site stack = {.depth = 0};
    _Unwind_Backtrace(frame, &stack);
    lock_take();
    unsigned s = site_of(&stack);
    if (s == MAX_SITES || blocks_used * 4 >= LIVE_SLOTS * 3ULL) {
        untracked++;
    } else {
        size_t at = home((uintptr_t)p);
        while (blocks[at].ptr) at = (at + 1) & (LIVE_SLOTS - 1);
        blocks[at] = (struct block){(uintptr_t)p, size, s};
        blocks_used++;
        site_bytes[s] += size, site_blocks[s]++;
        live += size, live_blocks++;
        if (live > peak) {
            peak = live, peak_live_blocks = live_blocks;
            memcpy(peak_bytes, site_bytes, sites_used * sizeof site_bytes[0]);
            memcpy(peak_blocks, site_blocks, sites_used * sizeof site_blocks[0]);
        }
    }
    lock_give();
    inside = 0;
}

static void note_free(void *p) {
    if (!p) return;
    lock_take();
    size_t at = home((uintptr_t)p);
    while (blocks[at].ptr && blocks[at].ptr != (uintptr_t)p) at = (at + 1) & (LIVE_SLOTS - 1);
    if (blocks[at].ptr) {
        struct block b = blocks[at];
        site_bytes[b.site] -= b.size, site_blocks[b.site]--;
        live -= b.size, live_blocks--;
        blocks_used--;
        // Backward shift: move each later block of the run whose home is
        // not between the hole and it into the hole.
        size_t hole = at;
        for (size_t next = (hole + 1) & (LIVE_SLOTS - 1); blocks[next].ptr;
             next = (next + 1) & (LIVE_SLOTS - 1)) {
            size_t want = home(blocks[next].ptr);
            if (((next - want) & (LIVE_SLOTS - 1)) >= ((next - hole) & (LIVE_SLOTS - 1))) {
                blocks[hole] = blocks[next];
                hole = next;
            }
        }
        blocks[hole].ptr = 0;
    }
    lock_give();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    note_alloc(p, size);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    note_alloc(p, n * size);
    return p;
}

void *realloc(void *old, size_t size) {
    note_free(old);
    void *p = __libc_realloc(old, size);
    note_alloc(p, size);
    return p;
}

void free(void *p) {
    note_free(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    note_alloc(p, size);
    return p;
}

void *aligned_alloc(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    note_alloc(p, size);
    return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    if (!p) return 12; // ENOMEM
    note_alloc(p, size);
    *out = p;
    return 0;
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
    unsigned long range[2] = {0, 0};
    const char *path = getenv("HEAPPROF_OUT");
    inside = 1;
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    dl_iterate_phdr(executable_range, range);
    lock_take();
    fprintf(out, "peak %llu %llu %llu\n", peak, peak_live_blocks, untracked);
    for (unsigned s = 0; s < sites_used; s++) {
        if (!peak_bytes[s]) continue;
        fprintf(out, "%llu %llu", peak_bytes[s], peak_blocks[s]);
        for (int i = 0; i < sites[s].depth; i++) {
            // A return address: the call is the instruction before it.
            unsigned long pc = sites[s].pc[i] - 1;
            if (pc >= range[0] && pc < range[1])
                fprintf(out, " %#lx", pc - range[0]);
            else
                fprintf(out, " -");
        }
        fprintf(out, "\n");
    }
    lock_give();
    fclose(out);
}

__attribute__((constructor)) static void start(void) { atexit(dump); }
