/* Fuzz target for the benchmark: a small validator for MINI and PNG-lite.
 *
 * Usage: target FILE.  Exits 0 when FILE is well formed, 1 otherwise.
 * A MINI chunk with an unknown tag or a wrong check byte raises SIGSEGV
 * instead: shapes that only an evil decision makes, so crashes stay a
 * minority of executions, as they are in a real campaign.
 */
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

static uint32_t crc_table[256];

static void crc_init(void) {
    for (uint32_t n = 0; n < 256; n++) {
        uint32_t c = n;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        crc_table[n] = c;
    }
}

static uint32_t crc32(const unsigned char *p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    while (n--)
        c = crc_table[(c ^ *p++) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

static uint32_t be32(const unsigned char *p) {
    return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | p[3];
}

/* MINI: "MINI", DATA chunks (0x01, uint16le length in [1, 16], payload,
 * sum-mod-256 check byte), then one END (0xFF) as the last byte. */
static int valid_mini(const unsigned char *d, size_t n) {
    size_t pos = 4;
    while (pos < n) {
        if (d[pos] == 0xFF)
            return pos + 1 == n;
        if (d[pos] != 0x01)
            raise(SIGSEGV);
        if (pos + 3 > n)
            return 0;
        size_t len = d[pos + 1] | (size_t)d[pos + 2] << 8;
        if (len < 1 || len > 16 || pos + 3 + len + 1 > n)
            return 0;
        unsigned sum = 0;
        for (size_t i = 0; i < len; i++)
            sum += d[pos + 3 + i];
        if ((sum & 0xFF) != d[pos + 3 + len])
            raise(SIGSEGV);
        pos += 3 + len + 1;
    }
    return 0;
}

/* PNG-lite: signature, then chunks (length, type, body, CRC-32 over type
 * and body) up to an IEND that ends the file. */
static int valid_png(const unsigned char *d, size_t n) {
    size_t pos = 8;
    crc_init();
    while (pos + 12 <= n) {
        uint32_t len = be32(d + pos);
        if (len > n - pos - 12)
            return 0;
        if (crc32(d + pos + 4, 4 + (size_t)len) != be32(d + pos + 8 + len))
            return 0;
        int iend = memcmp(d + pos + 4, "IEND", 4) == 0;
        pos += 12 + (size_t)len;
        if (iend)
            return pos == n;
    }
    return 0;
}

int main(int argc, char **argv) {
    static const unsigned char png_sig[8] = {0x89, 'P', 'N', 'G', '\r', '\n', 0x1A, '\n'};
    static unsigned char buf[1 << 17];
    struct rlimit no_core = {0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    if (argc != 2)
        return 2;
    FILE *f = fopen(argv[1], "rb");
    if (!f)
        return 2;
    size_t n = fread(buf, 1, sizeof buf, f);
    fclose(f);
    if (n >= 4 && memcmp(buf, "MINI", 4) == 0)
        return valid_mini(buf, n) ? 0 : 1;
    if (n >= 8 && memcmp(buf, png_sig, 8) == 0)
        return valid_png(buf, n) ? 0 : 1;
    return 1;
}
